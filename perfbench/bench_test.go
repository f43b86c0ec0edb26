package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsTiny runs every workload at tiny size, untraced and
// traced, and checks that each emits every named metric with its unit,
// that no operation failed, and that the written spans nest with
// non-negative self times.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: time.Second, trace: traced, sz: tinySizes, outDir: t.TempDir()}
			res, det, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d (%s)", w, traced, res.Correct, res.Attempted, res.Failed, det.FirstError)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, s.name, m, s.unit)
				}
			}
			if traced {
				checkSpanFile(t, det.SpanFile)
			}
		}
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	self, err := selfTimes(dump.Spans)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for id, v := range self {
		if v < 0 {
			t.Errorf("%s: span %d self time %d", path, id, v)
		}
	}
}

// TestSelfTimesRejectsBadNesting checks the span checker itself.
func TestSelfTimesRejectsBadNesting(t *testing.T) {
	good := []span{
		{Trace: 1, ID: 1, Name: "root", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
	}
	self, err := selfTimes(good)
	if err != nil || self[1] != 50 || self[2] != 30 {
		t.Fatalf("self %v, err %v; want root 50 (overlap counted once), a 30", self, err)
	}
	outside := append([]span(nil), good...)
	outside[2].End = 120
	if _, err := selfTimes(outside); err == nil {
		t.Error("child ending after its parent was accepted")
	}
	orphan := append([]span(nil), good...)
	orphan[1].Parent = 9
	if _, err := selfTimes(orphan); err == nil {
		t.Error("span with unknown parent was accepted")
	}
}

// tinyServing trains the tiny deployment and serves it in process.
func tinyServing(t *testing.T) (deployment, *stack) {
	t.Helper()
	d, err := trainDeployment(prepData(tinySizes))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := publish(dir, d); err != nil {
		t.Fatal(err)
	}
	st, err := openStack(dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.close)
	return d, st
}

// TestBatchCheckRejectsCorruptedDetection moves one detection's end in a
// real response and expects both the full check and the byte check of
// a validated request to fail.
func TestBatchCheckRejectsCorruptedDetection(t *testing.T) {
	d, st := tinyServing(t)
	sz := tinySizes
	sz.points = 2000 // long enough for every model to fire
	for _, bodies := range [][]batchBody{calorieBodies(sz, 5), electricityBodies(sz, 5)} {
		bt, err := newBatchTraffic(d, bodies)
		if err != nil {
			t.Fatal(err)
		}
		b := bodies[0]
		status, resp := serveInProcess(st.handler, http.MethodPost, "/models/"+b.model+"/detect", b.json)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, resp)
		}
		var doc map[string]any
		if err := json.Unmarshal(resp, &doc); err != nil {
			t.Fatal(err)
		}
		corrupted := corruptFirst(t, doc)
		if err := validateBatch(corrupted, b.model, bt.want[0]); !errors.Is(err, errMismatch) {
			t.Errorf("%s: corrupted response passed the full check: %v", b.model, err)
		}
		if err := bt.checkResponse(0, resp); err != nil {
			t.Fatalf("%s: genuine response failed: %v", b.model, err)
		}
		if err := bt.checkResponse(0, corrupted); !errors.Is(err, errMismatch) {
			t.Errorf("%s: corrupted response passed the byte check: %v", b.model, err)
		}
	}
}

// corruptFirst moves the end of the first detection in a decoded batch
// response and returns the re-encoded document.
func corruptFirst(t *testing.T, doc map[string]any) []byte {
	t.Helper()
	for _, r := range doc["results"].([]any) {
		dets, _ := r.(map[string]any)["detections"].([]any)
		if len(dets) == 0 {
			continue
		}
		det := dets[0].(map[string]any)
		det["end"] = det["end"].(float64) + 1
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	t.Fatal("no detection to corrupt")
	return nil
}

// TestStreamCheckRejectsCorruptedDetection pushes a feed in process until
// a detection appears, then corrupts it.
func TestStreamCheckRejectsCorruptedDetection(t *testing.T) {
	d, st := tinyServing(t)
	feeds := streamFeeds(tinySizes, 5)
	stt, err := newStreamTraffic(d, feeds)
	if err != nil {
		t.Fatal(err)
	}
	for s, f := range feeds {
		id, err := createSession(inProcessDo(st.handler), f)
		if err != nil {
			t.Fatal(err)
		}
		for k, body := range stt.pushes[s] {
			_, resp := serveInProcess(st.handler, http.MethodPost, "/streams/"+id+"/points", body)
			if err := stt.checkResponse(s, k, resp); err != nil {
				t.Fatalf("session %d push %d: genuine response failed: %v", s, k, err)
			}
			var doc map[string]any
			if err := json.Unmarshal(resp, &doc); err != nil {
				t.Fatal(err)
			}
			dets := doc["detections"].([]any)
			if len(dets) == 0 {
				continue
			}
			dets[0].(map[string]any)["window_end"] = dets[0].(map[string]any)["window_end"].(float64) + 1
			corrupted, _ := json.Marshal(doc) // decoded JSON re-encodes
			if err := validatePush(corrupted, k, stt.want[s][k]); !errors.Is(err, errMismatch) {
				t.Errorf("corrupted push passed the full check: %v", err)
			}
			if err := stt.checkResponse(s, k, corrupted); !errors.Is(err, errMismatch) {
				t.Errorf("corrupted push passed the byte check: %v", err)
			}
			return
		}
	}
	t.Fatal("no stream detection to corrupt")
}

// TestTrainResultMustMatch checks that the job comparison notices a
// changed score and a changed rule count.
func TestTrainResultMustMatch(t *testing.T) {
	ref := trainReference
	if !ref.equal(trainReference) {
		t.Fatal("reference differs from itself")
	}
	score := ref
	score.Score += 1e-12
	rules := ref
	rules.ScaleRules = append([]int(nil), ref.ScaleRules...)
	rules.ScaleRules[len(rules.ScaleRules)-1]++
	if ref.equal(score) || ref.equal(rules) {
		t.Error("a changed job result compared equal")
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the emitted
// metrics in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d emitted", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], emitted %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, here %s", i, w.Name, workloads[i])
		}
	}
}
