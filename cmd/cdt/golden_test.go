package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// writeSpikyFixture writes a labeled CSV whose "noisy" column is a
// seasonal series with every anomalies index raised to 160. With multi
// it also carries a quiet seasonal column first ("quiet,noisy,
// is_anomaly", a multivariate CSV); otherwise it is univariate
// ("value,is_anomaly").
func writeSpikyFixture(t *testing.T, dir, name string, n int, anomalies []int, seed int64, multi bool) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	anom := make([]bool, n)
	for _, at := range anomalies {
		anom[at] = true
	}
	var b strings.Builder
	if multi {
		b.WriteString("quiet,noisy,is_anomaly\n")
	} else {
		b.WriteString("value,is_anomaly\n")
	}
	for i := 0; i < n; i++ {
		noisy := 50 + 10*math.Sin(float64(i)/5) + 3*rng.Float64()
		label := 0
		if anom[i] {
			noisy, label = 160, 1
		}
		if multi {
			fmt.Fprintf(&b, "%g,", 20+5*math.Sin(float64(i)/7))
		}
		fmt.Fprintf(&b, "%g,%d\n", noisy, label)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// span lists the indices [from, to].
func span(from, to int) []int {
	var out []int
	for i := from; i <= to; i++ {
		out = append(out, i)
	}
	return out
}

// capture runs the CLI with args and returns what it printed to stdout,
// followed by an "error: ..." line when the run failed. The temp dir is
// replaced by $TMP so the output is stable across runs.
func capture(t *testing.T, dir string, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := run(args)
	w.Close()
	os.Stdout = stdout
	out := string(<-done)
	r.Close()
	if runErr != nil {
		out += "error: " + runErr.Error() + "\n"
	}
	return strings.ReplaceAll(out, dir, "$TMP")
}

// TestCLIGolden pins the stdout of train, detect and stream for plain,
// pyramid and dimension-scoring pyramid artifacts, including -dim on a
// plain model and the dimension-mismatch errors. Regenerate with
// `go test ./cmd/cdt -run TestCLIGolden -update` and review the diff.
func TestCLIGolden(t *testing.T) {
	dir := t.TempDir()
	trainAt := append([]int{60, 250, 340}, span(150, 165)...)
	probeAt := append([]int{40, 230}, span(120, 135)...)
	train := writeSpikyFixture(t, dir, "train.csv", 400, trainAt, 21, false)
	fresh := writeSpikyFixture(t, dir, "fresh.csv", 300, probeAt, 22, false)
	multi := writeSpikyFixture(t, dir, "multi.csv", 400, trainAt, 23, true)
	probe := writeSpikyFixture(t, dir, "probe.csv", 300, probeAt, 24, true)
	plain := filepath.Join(dir, "plain.json")
	pyr := filepath.Join(dir, "pyramid.json")
	weighted := filepath.Join(dir, "weighted.json")
	dimPyr := filepath.Join(dir, "dim.json")

	runs := []struct {
		name string
		args []string
	}{
		{"train-plain", []string{"train", "-in", train, "-omega", "5", "-delta", "2", "-save", plain}},
		{"detect-plain", []string{"detect", "-model", plain, "-in", fresh}},
		{"stream-plain", []string{"stream", "-model", plain, "-in", fresh}},
		{"detect-plain-dim", []string{"detect", "-model", plain, "-in", probe, "-dim", "1"}},
		{"stream-plain-dim", []string{"stream", "-model", plain, "-in", probe, "-dim", "1"}},
		{"train-pyramid", []string{"train", "-in", train, "-omega", "5", "-delta", "2", "-scales", "1,4", "-agg", "max", "-save", pyr}},
		{"detect-pyramid", []string{"detect", "-model", pyr, "-in", fresh}},
		{"stream-pyramid", []string{"stream", "-model", pyr, "-in", fresh}},
		{"train-weighted", []string{"train", "-in", train, "-scales", "1,2,4", "-fusion", "weighted", "-save", weighted}},
		{"detect-weighted", []string{"detect", "-model", weighted, "-in", fresh}},
		{"train-kofn", []string{"train", "-in", train, "-scales", "1,2,4", "-agg", "max", "-fusion", "k-of-n"}},
		{"train-dim", []string{"train", "-in", multi, "-scales", "1,2", "-agg", "max", "-dim", "1", "-fusion", "weighted", "-save", dimPyr}},
		{"detect-dim", []string{"detect", "-model", dimPyr, "-in", probe}},
		{"detect-dim-flag", []string{"detect", "-model", dimPyr, "-in", probe, "-dim", "1"}},
		{"stream-dim", []string{"stream", "-model", dimPyr, "-in", probe}},
		{"stream-dim-flag", []string{"stream", "-model", dimPyr, "-in", probe, "-dim", "1", "-min", "0", "-max", "200"}},
		{"detect-dim-mismatch", []string{"detect", "-model", dimPyr, "-in", probe, "-dim", "0"}},
		{"stream-dim-mismatch", []string{"stream", "-model", dimPyr, "-in", probe, "-dim", "0"}},
		{"stream-plain-dim-range", []string{"stream", "-model", plain, "-in", probe, "-dim", "5"}},
		{"train-dim-without-scales", []string{"train", "-in", multi, "-dim", "1"}},
	}
	for _, rc := range runs {
		got := capture(t, dir, rc.args...)
		path := filepath.Join("testdata", "golden", rc.name+".txt")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to record)", rc.name, err)
		}
		if got != string(want) {
			t.Errorf("%s: stdout diverged from %s\n--- got ---\n%s--- want ---\n%s", rc.name, path, got, want)
		}
	}
}
