package modelstore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	cdt "cdt"
)

// spiky generates a labeled seasonal series with spike anomalies.
func spiky(name string, n int, spikes []int, seed int64) *cdt.Series {
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	anoms := make([]bool, n)
	for i := range values {
		values[i] = 100 + 20*math.Sin(float64(i)/8) + 2*rng.Float64()
	}
	for _, at := range spikes {
		values[at] = 400
		anoms[at] = true
	}
	return cdt.NewLabeledSeries(name, values, anoms)
}

// modelDoc trains a model and returns its serialized document.
func modelDoc(tb testing.TB, seed int64) []byte {
	tb.Helper()
	model, err := cdt.Fit(
		[]*cdt.Series{spiky("train", 500, []int{90, 200, 330, 430}, seed)},
		cdt.Options{Omega: 5, Delta: 2},
	)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestPublishPromoteRollbackRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	v1, err := st.Publish("spikes", modelDoc(t, 7), "publish", "initial")
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 || v1.Omega != 5 || v1.Delta != 2 || v1.NumRules == 0 {
		t.Fatalf("v1 = %+v", v1)
	}
	if !strings.HasPrefix(v1.Digest, "sha256-") {
		t.Fatalf("digest %q not content-addressed", v1.Digest)
	}
	if _, ok := st.Current("spikes"); ok {
		t.Fatal("unpromoted publish became current")
	}

	if err := st.Promote("spikes", 1); err != nil {
		t.Fatal(err)
	}
	if cur, ok := st.Current("spikes"); !ok || cur.Version != 1 {
		t.Fatalf("current after promote = %+v, %v", cur, ok)
	}

	v2, err := st.Publish("spikes", modelDoc(t, 11), "publish", "candidate")
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != 2 {
		t.Fatalf("v2 = %+v", v2)
	}
	if err := st.Promote("spikes", 2); err != nil {
		t.Fatal(err)
	}
	m, v, err := st.LoadCurrent("spikes")
	if err != nil || v.Version != 2 || m.NumRules() == 0 {
		t.Fatalf("LoadCurrent = %+v, %v", v, err)
	}

	back, err := st.Rollback("spikes")
	if err != nil || back != 1 {
		t.Fatalf("Rollback = %d, %v", back, err)
	}
	if cur, _ := st.Current("spikes"); cur.Version != 1 {
		t.Fatalf("current after rollback = %+v", cur)
	}
	// Rollback toggles: rolling back again returns to v2.
	if back, err = st.Rollback("spikes"); err != nil || back != 2 {
		t.Fatalf("second Rollback = %d, %v", back, err)
	}

	// Round-trip through a fresh Open: manifest state survives.
	st2, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	vers, cur, err := st2.Versions("spikes")
	if err != nil || len(vers) != 2 || cur != 2 {
		t.Fatalf("reopened Versions = %+v, current %d, %v", vers, cur, err)
	}
	models, versions, err := st2.CurrentModels()
	if err != nil || len(models) != 1 || versions["spikes"] != 2 {
		t.Fatalf("CurrentModels = %v, %v, %v", models, versions, err)
	}
}

// TestIdenticalContentSharesBlob: publishing the same bytes twice
// creates two versions over one content-addressed blob.
func TestIdenticalContentSharesBlob(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	doc := modelDoc(t, 3)
	v1, err := st.Publish("m", doc, "publish", "")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := st.Publish("m", doc, "publish", "")
	if err != nil {
		t.Fatal(err)
	}
	if v1.Digest != v2.Digest || v2.Version != 2 {
		t.Fatalf("v1=%+v v2=%+v", v1, v2)
	}
	blobs, err := os.ReadDir(filepath.Join(st.Dir(), "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 {
		t.Fatalf("%d blobs for identical content, want 1", len(blobs))
	}
}

// TestAlteredBlobIsRefusedThenRepaired: a blob whose bytes no longer
// hash to its name (one byte changed, as a torn write or bit rot would
// leave it) fails LoadVersion and CurrentModels, naming the digest, so
// a registry reload is refused whole; publishing the same document
// again rewrites the blob, and loading then succeeds. The changed byte
// turns an indenting space into a tab, so the altered document still
// parses and only the digest check can refuse it.
func TestAlteredBlobIsRefusedThenRepaired(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	doc := modelDoc(t, 5)
	v, err := st.Publish("m", doc, "publish", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Promote("m", v.Version); err != nil {
		t.Fatal(err)
	}
	path := st.blobPath(v.Digest)
	altered := bytes.Clone(doc)
	altered[bytes.IndexByte(altered, ' ')] = '\t'
	if err := os.WriteFile(path, altered, 0o644); err != nil {
		t.Fatal(err)
	}
	short := shortDigest(v.Digest)
	if _, err := cdt.LoadAny(bytes.NewReader(altered)); err != nil {
		t.Fatalf("the altered document no longer parses: %v", err)
	}
	if _, _, err := st.LoadVersion("m", v.Version); err == nil || !strings.Contains(err.Error(), short) || !strings.Contains(err.Error(), "m v1") {
		t.Fatalf("LoadVersion of an altered blob: %v, want an error naming m v1 and %s", err, short)
	}
	if models, _, err := st.CurrentModels(); err == nil || !strings.Contains(err.Error(), short) {
		t.Fatalf("CurrentModels over an altered blob: %d models, %v; want an error naming %s", len(models), err, short)
	}
	if _, err := st.Publish("m", doc, "publish", "repair"); err != nil {
		t.Fatal(err)
	}
	if stored, err := os.ReadFile(path); err != nil || !bytes.Equal(stored, doc) {
		t.Fatalf("blob after republishing: err %v, repaired %v", err, bytes.Equal(stored, doc))
	}
	if _, _, err := st.LoadVersion("m", v.Version); err != nil {
		t.Fatalf("LoadVersion after the repair: %v", err)
	}
	if models, _, err := st.CurrentModels(); err != nil || models["m"] == nil {
		t.Fatalf("CurrentModels after the repair: %v, %v", models, err)
	}
}

// TestAuditAppendOnlyGolden pins the audit trail for a fixed lifecycle:
// the event sequence, ordering, and strictly increasing sequence
// numbers are a contract — and earlier records must be byte-identical
// after later operations append (append-only property).
func TestAuditAppendOnlyGolden(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("spikes", modelDoc(t, 7), "publish", ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Promote("spikes", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("spikes", modelDoc(t, 11), "retrain", "drift"); err != nil {
		t.Fatal(err)
	}
	if err := st.Promote("spikes", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Rollback("spikes"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("spikes", []byte("{not a model"), "publish", ""); err == nil {
		t.Fatal("corrupt candidate accepted")
	}

	events, err := st.Audit(0)
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		event   string
		version int
	}{
		{EventPublish, 1},
		{EventPromote, 1},
		{EventPublish, 2},
		{EventPromote, 2},
		{EventRollback, 1},
		{EventRefuse, 0},
	}
	if len(events) != len(golden) {
		t.Fatalf("%d audit events, want %d: %+v", len(events), len(golden), events)
	}
	for i, g := range golden {
		e := events[i]
		if e.Event != g.event || e.Version != g.version || e.Model != "spikes" {
			t.Errorf("event[%d] = %+v, want %s v%d", i, e, g.event, g.version)
		}
		if e.Seq != uint64(i+1) {
			t.Errorf("event[%d] seq = %d, want %d", i, e.Seq, i+1)
		}
	}

	// Append-only: the raw bytes of the existing log are a strict prefix
	// of the log after more operations.
	before, err := os.ReadFile(filepath.Join(st.Dir(), "audit.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Note(EventShadow, "spikes", 2, "start"); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(st.Dir(), "audit.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, before) {
		t.Fatal("audit log rewrote earlier records")
	}

	// Reopen continues the sequence instead of restarting it.
	st2, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Note(EventShadow, "spikes", 2, "stop"); err != nil {
		t.Fatal(err)
	}
	events, err = st2.Audit(0)
	if err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.Seq != uint64(len(events)) || last.Detail != "stop" {
		t.Fatalf("sequence did not survive reopen: %+v", last)
	}
}

// TestRefusalNamesOffendingField: a refused candidate's audit record
// carries cdt.Load's field path, so the log says why.
func TestRefusalNamesOffendingField(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A structurally valid document with an out-of-range label.
	bad := []byte(`{"version":1,"options":{"omega":5,"delta":2,"epsilon":0.01,
		"criterion":"gini","match":"contiguous","leaf_policy":"pure-anomaly"},
		"tree":{"composition":[[9,99,99]],
		"true":{"normal":0,"anomaly":3},"false":{"normal":7,"anomaly":0},
		"normal":7,"anomaly":3}}`)
	_, err = st.Publish("m", bad, "publish", "")
	if err == nil {
		t.Fatal("invalid candidate accepted")
	}
	if !strings.Contains(err.Error(), "tree.composition[0]") {
		t.Errorf("refusal %q does not name the offending field path", err)
	}
	events, auditErr := st.Audit(0)
	if auditErr != nil || len(events) != 1 {
		t.Fatalf("audit = %+v, %v", events, auditErr)
	}
	if events[0].Event != EventRefuse || !strings.Contains(events[0].Detail, "tree.composition[0]") {
		t.Errorf("refusal audit record %+v does not carry the field path", events[0])
	}
}

// TestCrashSafety: a leftover partial manifest.json.tmp (torn write
// from a crash) is ignored, while a corrupt manifest.json proper fails
// loudly.
func TestCrashSafety(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Publish("m", modelDoc(t, 3), "publish", ""); err != nil {
		t.Fatal(err)
	}
	if err := st.Promote("m", 1); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-save: garbage in the temp file.
	if err := os.WriteFile(filepath.Join(dir, "manifest.json.tmp"), []byte(`{"format":1,"mod`), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with leftover tmp manifest: %v", err)
	}
	if cur, ok := st2.Current("m"); !ok || cur.Version != 1 {
		t.Fatalf("state lost behind tmp file: %+v, %v", cur, ok)
	}
	if err := st2.CheckReady(); err != nil {
		t.Fatalf("CheckReady with leftover tmp: %v", err)
	}

	// A torn manifest.json proper must refuse to open.
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(`{"format":1,"mod`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt manifest.json accepted")
	}
}

// TestOpenRejectsInvalidManifest: Open refuses, naming the model, a
// parseable manifest the store never writes, instead of handing GC and
// Publish entries they trip over (a null entry panicked GC).
func TestOpenRejectsInvalidManifest(t *testing.T) {
	digest := `"sha256-` + strings.Repeat("0f", 32) + `"`
	v := func(n int, d string) string { return fmt.Sprintf(`{"version":%d,"digest":%s}`, n, d) }
	for _, models := range []string{
		`{"x":null}`,
		`{"x":{"versions":[` + v(0, digest) + `]}}`,
		`{"x":{"versions":[` + v(-3, digest) + `]}}`,
		`{"x":{"versions":[` + v(2, digest) + `,` + v(1, digest) + `]}}`,
		`{"x":{"versions":[` + v(1, digest) + `,` + v(1, digest) + `]}}`,
		`{"x":{"versions":[` + v(1, `"sha256-`+strings.Repeat("0F", 32)+`"`) + `]}}`,
		`{"x":{"versions":[` + v(1, `"sha256-0f"`) + `]}}`,
		`{"x":{"versions":[` + v(1, `"../../manifest"`) + `]}}`,
		`{"x":{"versions":[` + v(1, `""`) + `]}}`,
		`{"x":{"current":2,"versions":[` + v(1, digest) + `]}}`,
		`{"x":{"current":1,"previous":3,"versions":[` + v(1, digest) + `]}}`,
		`{"x":{"current":-1,"versions":[` + v(1, digest) + `]}}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(`{"format":1,"models":`+models+`}`), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err == nil {
			_, gcErr := st.GC()
			t.Fatalf("Open accepted models %s (GC: %v)", models, gcErr)
		}
		if !strings.Contains(err.Error(), `model "x"`) {
			t.Errorf("models %s: error %q does not name the model", models, err)
		}
	}
}

// TestTornAuditRecordDoesNotBreakLog: a crash mid-append leaves a final
// record without its newline. Reopening ends that line, so the next
// record is readable and Audit skips only the torn one.
func TestTornAuditRecordDoesNotBreakLog(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := st.Note(EventShadow, "m", i, "before"); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, "audit.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"time":1,"event":"sha`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Note(EventShadow, "m", 4, "after"); err != nil {
		t.Fatal(err)
	}
	events, err := st.Audit(0)
	if err != nil {
		t.Fatalf("Audit after a torn record: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("%d events, want 4: %+v", len(events), events)
	}
	if last := events[3]; last.Seq != 4 || last.Detail != "after" {
		t.Fatalf("event after the torn record = %+v, want seq 4 detail after", last)
	}
}

// TestCheckReadyMissingBlob: deleting a promoted blob out from under
// the store flips readiness.
func TestCheckReadyMissingBlob(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.Publish("m", modelDoc(t, 3), "publish", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Promote("m", 1); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckReady(); err != nil {
		t.Fatalf("ready store reported %v", err)
	}
	if err := os.Remove(filepath.Join(st.Dir(), "blobs", v.Digest+".json")); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckReady(); err == nil {
		t.Fatal("missing promoted blob not detected")
	}
}

// TestConcurrentPublishPromote hammers the store from many goroutines
// under -race: every version number must come out unique and the final
// manifest consistent.
func TestConcurrentPublishPromote(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	doc := modelDoc(t, 5)
	const workers = 8
	const perWorker = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v, err := st.Publish("m", doc, "publish", fmt.Sprintf("w%d-%d", w, i))
				if err != nil {
					t.Error(err)
					return
				}
				if err := st.Promote("m", v.Version); err != nil {
					t.Error(err)
					return
				}
				if _, ok := st.Current("m"); !ok {
					t.Error("no current after promote")
					return
				}
				if _, err := st.Audit(4); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	vers, cur, err := st.Versions("m")
	if err != nil {
		t.Fatal(err)
	}
	if len(vers) != workers*perWorker || cur == 0 {
		t.Fatalf("%d versions (want %d), current %d", len(vers), workers*perWorker, cur)
	}
	seen := make(map[int]bool)
	for _, v := range vers {
		if seen[v.Version] {
			t.Fatalf("duplicate version %d", v.Version)
		}
		seen[v.Version] = true
	}
	events, err := st.Audit(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("audit seq %d at index %d", e.Seq, i)
		}
	}
}

// TestCorpusRetrainer: the drift retrainer produces a loadable
// candidate document and a note naming the winning configuration.
func TestCorpusRetrainer(t *testing.T) {
	train, err := cdt.NewCorpus([]*cdt.Series{spiky("tr", 400, []int{90, 200, 330}, 7)})
	if err != nil {
		t.Fatal(err)
	}
	val, err := cdt.NewCorpus([]*cdt.Series{spiky("va", 300, []int{120, 240}, 9)})
	if err != nil {
		t.Fatal(err)
	}
	incumbent, err := train.Fit(cdt.Options{Omega: 5, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := &CorpusRetrainer{
		Train:      train,
		Validation: val,
		Objective:  cdt.ObjectiveFH,
		Opts:       cdt.OptimizeOptions{InitPoints: 3, Iterations: 2, Seed: 1},
	}
	doc, note, err := r.Retrain("spikes", incumbent)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(note, "omega=") || !strings.Contains(note, "evaluations") {
		t.Errorf("note %q lacks configuration summary", note)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.Publish("spikes", doc, "retrain", note)
	if err != nil {
		t.Fatalf("retrained candidate refused: %v", err)
	}
	if v.Source != "retrain" || v.NumRules == 0 {
		t.Fatalf("published retrain version = %+v", v)
	}
}
