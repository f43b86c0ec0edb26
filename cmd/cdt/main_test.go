package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdt/internal/datasets"
	"cdt/internal/datasets/sge"
)

// writeFixture materializes one synthetic calorie series as a CSV file.
func writeFixture(t *testing.T, dir, name string, seed int64) string {
	t.Helper()
	d := sge.Calorie(sge.CalorieOptions{Sensors: 1, Days: 300, Seed: seed})
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := datasets.WriteCSV(f, d.Series[0]); err != nil {
		t.Fatal(err)
	}
	return path
}

// stderr shows the "cdt: " prefix once, whether the error is the CLI's
// own or comes from the cdt package, which already prefixes it.
func TestErrorLinePrefixesOnce(t *testing.T) {
	in := writeFixture(t, t.TempDir(), "calorie-00.csv", 1)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"train", "-in", in, "-omega", "0"}, "cdt: omega 0, want >= 1"},
		{[]string{"train", "-in", in, "-delta", "200"}, "cdt: delta 200, want <= 127"},
		{[]string{"train", "-in", in, "-scales", "1,4", "-fusion", "k-of-n", "-k", "5"},
			"cdt: pyramid scales [1 4]: fusion quorum k=5 outside [1,2]"},
		{[]string{"train", "-in", in, "-scales", "1,4", "-fusion", "nope"}, `cdt: unknown fusion policy "nope"`},
		{[]string{"train"}, "cdt: train: -in is required"},
	} {
		err := run(tc.args)
		if err == nil {
			t.Fatalf("%v: no error", tc.args)
		}
		if got := errorLine(err); got != tc.want {
			t.Errorf("%v: stderr line %q, want %q", tc.args, got, tc.want)
		}
	}
}

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestLabelCommand(t *testing.T) {
	dir := t.TempDir()
	in := writeFixture(t, dir, "a.csv", 1)
	if err := run([]string{"label", "-in", in, "-delta", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"label"}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"label", "-in", filepath.Join(dir, "absent.csv")}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTrainDetectRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trainCSV := writeFixture(t, dir, "train.csv", 2)
	freshCSV := writeFixture(t, dir, "fresh.csv", 3)
	modelPath := filepath.Join(dir, "model.json")

	if err := run([]string{"train", "-in", trainCSV, "-omega", "5", "-delta", "2", "-save", modelPath}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(modelPath); err != nil {
		t.Fatalf("model not written: %v", err)
	}
	if err := run([]string{"detect", "-model", modelPath, "-in", freshCSV}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"detect", "-train", trainCSV, "-in", freshCSV, "-omega", "5", "-delta", "2"}); err != nil {
		t.Fatal(err)
	}

	// A NaN reading fails detect, so the command exits non-zero, instead
	// of scanning as a series with nothing flagged.
	b, err := os.ReadFile(freshCSV)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(b), "\n", 3) // header, first reading, the rest
	_, flag, _ := strings.Cut(lines[1], ",")
	lines[1] = "NaN," + flag
	nanCSV := filepath.Join(dir, "nan.csv")
	if err := os.WriteFile(nanCSV, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"detect", "-model", modelPath, "-in", nanCSV}); err == nil {
		t.Error("detect accepted a series whose first reading is NaN")
	}
}

func TestDetectFlagValidation(t *testing.T) {
	dir := t.TempDir()
	in := writeFixture(t, dir, "a.csv", 4)
	if err := run([]string{"detect", "-in", in}); err == nil {
		t.Error("neither -train nor -model rejected... accepted")
	}
	if err := run([]string{"detect", "-train", in, "-model", in, "-in", in}); err == nil {
		t.Error("both -train and -model accepted")
	}
	if err := run([]string{"detect", "-train", in}); err == nil {
		t.Error("missing -in accepted")
	}
}

func TestTrainRejectsUnlabeled(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plain.csv")
	if err := os.WriteFile(path, []byte("value\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"train", "-in", path}); err == nil {
		t.Error("unlabeled training file accepted")
	}
}

func TestAuditCommand(t *testing.T) {
	dir := t.TempDir()
	trainCSV := writeFixture(t, dir, "train.csv", 5)
	evalCSV := writeFixture(t, dir, "eval.csv", 6)
	if err := run([]string{"audit", "-train", trainCSV, "-eval", evalCSV, "-omega", "5", "-delta", "2"}); err != nil {
		t.Fatal(err)
	}
	// Defaults -eval to -train.
	if err := run([]string{"audit", "-train", trainCSV}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"audit"}); err == nil {
		t.Error("missing -train accepted")
	}
}

func TestStreamCommand(t *testing.T) {
	dir := t.TempDir()
	trainCSV := writeFixture(t, dir, "train.csv", 7)
	feedCSV := writeFixture(t, dir, "feed.csv", 8)
	modelPath := filepath.Join(dir, "model.json")
	if err := run([]string{"train", "-in", trainCSV, "-omega", "5", "-delta", "2", "-save", modelPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"stream", "-model", modelPath, "-in", feedCSV}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"stream", "-model", modelPath, "-in", feedCSV, "-min", "0", "-max", "500"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"stream", "-in", feedCSV}); err == nil {
		t.Error("missing -model accepted")
	}
}

// With an explicit scale, a non-finite reading fails the stream before
// any reading is pushed, naming its index, as the derived scale does.
func TestStreamRejectsNonFiniteReadings(t *testing.T) {
	dir := t.TempDir()
	trainCSV := writeFixture(t, dir, "train.csv", 7)
	feedCSV := writeFixture(t, dir, "feed.csv", 8)
	modelPath := filepath.Join(dir, "model.json")
	if err := run([]string{"train", "-in", trainCSV, "-omega", "5", "-delta", "2", "-save", modelPath}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(feedCSV)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n") // header, then readings
	for _, bad := range []string{"NaN", "+Inf", "-Inf"} {
		for _, at := range []int{0, 41} {
			edited := append([]string(nil), lines...)
			_, flag, _ := strings.Cut(edited[at+1], ",")
			edited[at+1] = bad + "," + flag
			path := filepath.Join(dir, "bad.csv")
			if err := os.WriteFile(path, []byte(strings.Join(edited, "\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, scale := range [][]string{{"-min", "0", "-max", "500"}, nil} {
				err := run(append([]string{"stream", "-model", modelPath, "-in", path}, scale...))
				if err == nil {
					t.Fatalf("%s at reading %d, scale %v: stream accepted it", bad, at, scale)
				}
				if want := fmt.Sprintf("value %d is %s", at, bad); !strings.Contains(err.Error(), want) {
					t.Errorf("%s at reading %d, scale %v: error %q, want it to contain %q", bad, at, scale, err, want)
				}
			}
		}
	}
}

func TestOptimizeCommand(t *testing.T) {
	dir := t.TempDir()
	trainCSV := writeFixture(t, dir, "train.csv", 9)
	if err := run([]string{"optimize", "-in", trainCSV, "-objective", "f1", "-iters", "2", "-init", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"optimize", "-in", trainCSV, "-objective", "nope"}); err == nil {
		t.Error("bad objective accepted")
	}
	if err := run([]string{"optimize"}); err == nil {
		t.Error("missing -in accepted")
	}
}

func TestStoreCommand(t *testing.T) {
	dir := t.TempDir()
	trainCSV := writeFixture(t, dir, "train.csv", 12)
	modelPath := filepath.Join(dir, "model.json")
	storeDir := filepath.Join(dir, "store")
	if err := run([]string{"train", "-in", trainCSV, "-omega", "5", "-delta", "2", "-save", modelPath}); err != nil {
		t.Fatal(err)
	}
	// publish → promote → publish → rollback → versions → audit.
	if err := run([]string{"store", "publish", "-dir", storeDir, "-model", "cal", "-in", modelPath, "-note", "first"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"store", "promote", "-dir", storeDir, "-model", "cal", "-version", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"store", "publish", "-dir", storeDir, "-model", "cal", "-in", modelPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"store", "promote", "-dir", storeDir, "-model", "cal", "-version", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"store", "rollback", "-dir", storeDir, "-model", "cal"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"store", "versions", "-dir", storeDir}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"store", "audit", "-dir", storeDir, "-n", "3"}); err != nil {
		t.Fatal(err)
	}
	// Validation failures.
	if err := run([]string{"store"}); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"store", "bogus", "-dir", storeDir}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"store", "versions"}); err == nil {
		t.Error("missing -dir accepted")
	}
	if err := run([]string{"store", "publish", "-dir", storeDir, "-model", "cal"}); err == nil {
		t.Error("publish without -in accepted")
	}
	if err := run([]string{"store", "promote", "-dir", storeDir, "-model", "cal", "-version", "99"}); err == nil {
		t.Error("promote of unknown version accepted")
	}
	if err := run([]string{"store", "publish", "-dir", storeDir, "-model", "cal", "-in", trainCSV}); err == nil {
		t.Error("publish of a non-model file accepted")
	}
}

func TestPyramidTrainDetectStream(t *testing.T) {
	dir := t.TempDir()
	trainCSV := writeFixture(t, dir, "train.csv", 13)
	freshCSV := writeFixture(t, dir, "fresh.csv", 14)
	modelPath := filepath.Join(dir, "pyramid.json")

	if err := run([]string{"train", "-in", trainCSV, "-omega", "5", "-delta", "2",
		"-scales", "1,4", "-agg", "max", "-fusion", "any", "-save", modelPath}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(modelPath); err != nil {
		t.Fatalf("pyramid not written: %v", err)
	}
	// detect and stream load pyramid artifacts through the same flags as
	// plain models.
	if err := run([]string{"detect", "-model", modelPath, "-in", freshCSV}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"stream", "-model", modelPath, "-in", freshCSV}); err != nil {
		t.Fatal(err)
	}
	// Flag validation.
	if err := run([]string{"train", "-in", trainCSV, "-scales", "4,16"}); err == nil {
		t.Error("-scales without factor 1 accepted")
	}
	if err := run([]string{"train", "-in", trainCSV, "-scales", "1,x"}); err == nil {
		t.Error("non-integer -scales accepted")
	}
	if err := run([]string{"train", "-in", trainCSV, "-scales", "1,4", "-agg", "median"}); err == nil {
		t.Error("unknown -agg accepted")
	}
	if err := run([]string{"train", "-in", trainCSV, "-scales", "1,4", "-fusion", "sometimes"}); err == nil {
		t.Error("unknown -fusion accepted")
	}
}

func TestStoreGCAndDiff(t *testing.T) {
	dir := t.TempDir()
	trainCSV := writeFixture(t, dir, "train.csv", 15)
	otherCSV := writeFixture(t, dir, "other.csv", 16)
	m1 := filepath.Join(dir, "m1.json")
	m2 := filepath.Join(dir, "m2.json")
	storeDir := filepath.Join(dir, "store")
	if err := run([]string{"train", "-in", trainCSV, "-omega", "5", "-delta", "2", "-save", m1}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"train", "-in", otherCSV, "-omega", "5", "-delta", "3", "-save", m2}); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{m1, m2} {
		if err := run([]string{"store", "publish", "-dir", storeDir, "-model", "cal", "-in", m}); err != nil {
			t.Fatal(err)
		}
	}
	if err := run([]string{"store", "diff", "-dir", storeDir, "cal", "1", "2"}); err != nil {
		t.Fatal(err)
	}
	// Same version on both sides: no rule changes.
	if err := run([]string{"store", "diff", "-dir", storeDir, "cal", "1", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"store", "gc", "-dir", storeDir}); err != nil {
		t.Fatal(err)
	}
	// Validation failures.
	if err := run([]string{"store", "diff", "-dir", storeDir, "cal", "1"}); err == nil {
		t.Error("diff with one version accepted")
	}
	if err := run([]string{"store", "diff", "-dir", storeDir, "cal", "one", "2"}); err == nil {
		t.Error("non-integer version accepted")
	}
	if err := run([]string{"store", "diff", "-dir", storeDir, "cal", "1", "99"}); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestPlotCommand(t *testing.T) {
	dir := t.TempDir()
	in := writeFixture(t, dir, "a.csv", 10)
	trainCSV := writeFixture(t, dir, "b.csv", 11)
	if err := run([]string{"plot", "-in", in}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"plot", "-in", in, "-train", trainCSV, "-omega", "5", "-delta", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"plot"}); err == nil {
		t.Error("missing -in accepted")
	}
}
