package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"testing"

	"cdt/internal/datasets/sge"
	"cdt/internal/trace"
)

// BenchmarkServerBatchDetect measures end-to-end serving throughput
// (series scored per second) through the real HTTP handler: JSON decode,
// worker-pool fan-out, detection with rule rendering, JSON encode. This
// is the serving-path baseline future perf PRs compare against.
func BenchmarkServerBatchDetect(b *testing.B) {
	_, ts, _ := newTestServer(b, Config{})

	const seriesPerRequest = 8
	req := batchRequest{}
	for i := 0; i < seriesPerRequest; i++ {
		req.Series = append(req.Series, seriesPayload{
			Name:   "s",
			Values: spiky("s", 300, []int{120, 240}, int64(i)).Values,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	url := ts.URL + "/models/spikes/detect"

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out wireBatch
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || len(out.Results) != seriesPerRequest {
			b.Fatalf("status %d, %d results", resp.StatusCode, len(out.Results))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*seriesPerRequest)/b.Elapsed().Seconds(), "series/sec")
}

// BenchmarkServerBatchDetectTelemetry is BenchmarkServerBatchDetect at
// the maximum observability setting: metrics (always on) plus structured
// JSON access logging with request IDs. The delta against
// BenchmarkServerBatchDetect isolates the access-log cost; the delta of
// BenchmarkServerBatchDetect itself against its pre-telemetry number
// (REPORT.md) isolates the always-on metrics cost, which the <3%
// regression gate bounds.
func BenchmarkServerBatchDetectTelemetry(b *testing.B) {
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	_, ts, _ := newTestServer(b, Config{AccessLog: logger})

	const seriesPerRequest = 8
	req := batchRequest{}
	for i := 0; i < seriesPerRequest; i++ {
		req.Series = append(req.Series, seriesPayload{
			Name:   "s",
			Values: spiky("s", 300, []int{120, 240}, int64(i)).Values,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	url := ts.URL + "/models/spikes/detect"

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out wireBatch
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || len(out.Results) != seriesPerRequest {
			b.Fatalf("status %d, %d results", resp.StatusCode, len(out.Results))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*seriesPerRequest)/b.Elapsed().Seconds(), "series/sec")
}

// BenchmarkServerBatchDetectTraced is BenchmarkServerBatchDetect with a
// tracer configured but head sampling off — the everyone-pays cost of
// the tracing instrumentation points (one context lookup per span site,
// per-rule attribution tallies, drift rule window). The delta against
// BenchmarkServerBatchDetect is the overhead the <3% median gate
// (REPORT.md) bounds; per-request span recording is opt-in via the
// sample rate and is not part of the gate.
func BenchmarkServerBatchDetectTraced(b *testing.B) {
	tr := trace.New(trace.Config{SampleRate: 0})
	_, ts, _ := newTestServer(b, Config{Tracer: tr})

	const seriesPerRequest = 8
	req := batchRequest{}
	for i := 0; i < seriesPerRequest; i++ {
		req.Series = append(req.Series, seriesPayload{
			Name:   "s",
			Values: spiky("s", 300, []int{120, 240}, int64(i)).Values,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	url := ts.URL + "/models/spikes/detect"

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out wireBatch
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || len(out.Results) != seriesPerRequest {
			b.Fatalf("status %d, %d results", resp.StatusCode, len(out.Results))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*seriesPerRequest)/b.Elapsed().Seconds(), "series/sec")
}

// BenchmarkServerBatchDetectPyramid is BenchmarkServerBatchDetect with
// a two-scale pyramid artifact serving the same traffic shape: per-scale
// engine sweeps, point-level fusion, anomaly typing, and the per-scale
// response breakdown all ride the batch path. The delta against
// BenchmarkServerBatchDetect is the serving cost of multi-resolution
// scoring (REPORT.md).
func BenchmarkServerBatchDetectPyramid(b *testing.B) {
	s, ts, dir := newTestServer(b, Config{})
	writePyramid(b, dir, "multi", trainPyramid(b))
	if _, err := s.Registry().Reload(); err != nil {
		b.Fatal(err)
	}

	const seriesPerRequest = 8
	req := batchRequest{}
	for i := 0; i < seriesPerRequest; i++ {
		req.Series = append(req.Series, seriesPayload{
			Name:   "s",
			Values: plateauSpiky("s", 300, []int{120, 240}, 60, 24, int64(i)).Values,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	url := ts.URL + "/models/multi/detect"

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out wireBatch
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || len(out.Results) != seriesPerRequest {
			b.Fatalf("status %d, %d results", resp.StatusCode, len(out.Results))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*seriesPerRequest)/b.Elapsed().Seconds(), "series/sec")
}

// BenchmarkServerBatchDetectShadow is BenchmarkServerBatchDetect with a
// candidate version shadow-scoring every request. The serving path pays
// only an incumbent-range copy and a non-blocking enqueue — candidate
// scoring happens on background workers — so the delta against
// BenchmarkServerBatchDetect is the shadow overhead the <5% median gate
// (REPORT.md) bounds.
func BenchmarkServerBatchDetectShadow(b *testing.B) {
	s, ts, _ := newStoreServer(b, Config{})
	if code := doJSON(b, "POST", ts.URL+"/models/spikes/shadow", versionRequest{Version: 2}, nil); code != 201 {
		b.Fatalf("shadow start: status %d", code)
	}

	const seriesPerRequest = 8
	req := batchRequest{}
	for i := 0; i < seriesPerRequest; i++ {
		req.Series = append(req.Series, seriesPayload{
			Name:   "s",
			Values: spiky("s", 300, []int{120, 240}, int64(i)).Values,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	url := ts.URL + "/models/spikes/detect"

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out wireBatch
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || len(out.Results) != seriesPerRequest {
			b.Fatalf("status %d, %d results", resp.StatusCode, len(out.Results))
		}
	}
	b.StopTimer()
	s.shadows.drain() // candidate scoring runs off-path; settle before reporting
	if sh := s.shadows.Get("spikes"); sh == nil || sh.windows.Load() == 0 {
		b.Fatal("shadow scored nothing; the benchmark is not exercising the shadow path")
	}
	b.ReportMetric(float64(b.N*seriesPerRequest)/b.Elapsed().Seconds(), "series/sec")
}

// BenchmarkServerBatchDetectPyramidShadow is
// BenchmarkServerBatchDetectPyramid with a retrained pyramid candidate
// shadow-scoring every request — the same-kind comparison over fused
// point ranges plus the per-scale fire-rate observations, all on
// background workers. The delta against BenchmarkServerBatchDetectPyramid
// is the pyramid shadow overhead the <5% median gate (REPORT.md) bounds.
func BenchmarkServerBatchDetectPyramidShadow(b *testing.B) {
	s, ts, _ := newPyramidStoreServer(b)
	if code := doJSON(b, "POST", ts+"/models/multi/shadow", versionRequest{Version: 2}, nil); code != 201 {
		b.Fatalf("shadow start: status %d", code)
	}

	const seriesPerRequest = 8
	req := batchRequest{}
	for i := 0; i < seriesPerRequest; i++ {
		req.Series = append(req.Series, seriesPayload{
			Name:   "s",
			Values: plateauSpiky("s", 300, []int{120, 240}, 60, 24, int64(i)).Values,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	url := ts + "/models/multi/detect"

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out wireBatch
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || len(out.Results) != seriesPerRequest {
			b.Fatalf("status %d, %d results", resp.StatusCode, len(out.Results))
		}
	}
	b.StopTimer()
	s.shadows.drain() // candidate scoring runs off-path; settle before reporting
	if sh := s.shadows.Get("multi"); sh == nil || sh.windows.Load() == 0 {
		b.Fatal("shadow scored nothing; the benchmark is not exercising the shadow path")
	}
	b.ReportMetric(float64(b.N*seriesPerRequest)/b.Elapsed().Seconds(), "series/sec")
}

// BenchmarkServerSessionPush measures streaming-session throughput
// (points scored per second) through the real HTTP handler: one live
// session whose stream rides the model's shared compiled engine, fed
// chunked points. Steady-state cost per point is the engine cursor's
// O(1) incremental step plus the HTTP/JSON overhead.
func BenchmarkServerSessionPush(b *testing.B) {
	_, ts, _ := newTestServer(b, Config{})

	var created createStreamResponse
	cBody, err := json.Marshal(createStreamRequest{Model: "spikes", Min: 60, Max: 420})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/streams", "application/json", bytes.NewReader(cBody))
	if err != nil {
		b.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if created.ID == "" {
		b.Fatal("no session id")
	}

	const pointsPerPush = 256
	feed := spiky("live", pointsPerPush, []int{60, 180}, 7)
	body, err := json.Marshal(pushPointsRequest{Points: feed.Values})
	if err != nil {
		b.Fatal(err)
	}
	url := ts.URL + "/streams/" + created.ID + "/points"

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out wirePush
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || !out.Ready {
			b.Fatalf("status %d, ready %v", resp.StatusCode, out.Ready)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*pointsPerPush)/b.Elapsed().Seconds(), "points/sec")
}

// BenchmarkParseBatchRequest measures the decode layer alone on 8
// series of 2,000 daily calorie readings. "calorie" sends them at
// shortest round trip, like perfbench's batch-plain requests, so most
// carry 16–17 significant digits. "quarter" rounds them to a 0.25 grid,
// as a fixed-resolution sensor reports them, so most are fractions
// such as 97.25 that a float64 holds exactly: the exact tier converts
// those, and Eisel–Lemire would decline them.
func BenchmarkParseBatchRequest(b *testing.B) {
	const series, readings = 8, 2000
	ds := sge.Calorie(sge.CalorieOptions{Sensors: series, Days: readings, Seed: 1})
	for _, bc := range []struct {
		name  string
		round func(float64) float64
	}{
		{"calorie", func(v float64) float64 { return v }},
		{"quarter", func(v float64) float64 { return math.Round(4*v) / 4 }},
	} {
		req := batchRequest{}
		for _, s := range ds.Series {
			values := make([]float64, len(s.Values))
			for i, v := range s.Values {
				values[i] = bc.round(v)
			}
			req.Series = append(req.Series, seriesPayload{Name: s.Name, Values: values})
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, err := parseBatchRequest(body)
				if err != nil || len(req.Series) != series {
					b.Fatalf("%d series, err %v", len(req.Series), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*series*readings), "ns/reading")
		})
	}
}
