package server

// End-to-end coverage for pyramid artifacts through the serving stack:
// registry listing, batch scoring with anomaly-type tags and per-scale
// breakdowns, streaming sessions over pyramid streams, and shadow-start
// rejection.

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cdt "cdt"
	"cdt/internal/modelstore"
)

// plateauSpiky is spiky plus a sustained labeled level shift, so a
// multi-scale pyramid has both point-like and collective anomalies to
// learn from.
func plateauSpiky(name string, n int, spikes []int, pStart, pLen int, seed int64) *cdt.Series {
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
	for i := pStart; i < pStart+pLen && i < n; i++ {
		values[i] = 320
		anoms[i] = true
	}
	return cdt.NewLabeledSeries(name, values, anoms)
}

func trainPyramid(tb testing.TB) *cdt.PyramidModel {
	tb.Helper()
	pm, err := cdt.FitPyramid(
		[]*cdt.Series{plateauSpiky("train", 600, []int{90, 200, 430}, 300, 48, 7)},
		cdt.Options{Omega: 5, Delta: 2},
		cdt.PyramidConfig{Factors: []int{1, 4}, Aggregator: "max"},
	)
	if err != nil {
		tb.Fatal(err)
	}
	if pm.NumRules() == 0 {
		tb.Fatal("trained pyramid has no rules")
	}
	return pm
}

func writePyramid(tb testing.TB, dir, name string, pm *cdt.PyramidModel) {
	tb.Helper()
	var buf bytes.Buffer
	if err := pm.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

func TestServePyramidEndToEnd(t *testing.T) {
	s, ts, dir := newTestServer(t, Config{})
	writePyramid(t, dir, "multi", trainPyramid(t))
	if _, err := s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}

	// The listing tags the pyramid with its kind and scales; the plain
	// model keeps the pre-pyramid shape.
	var list struct {
		Models []ModelInfo `json:"models"`
	}
	if code := doJSON(t, "GET", ts.URL+"/models", nil, &list); code != 200 {
		t.Fatalf("models list = %d", code)
	}
	byName := make(map[string]ModelInfo)
	for _, mi := range list.Models {
		byName[mi.Name] = mi
	}
	if mi := byName["multi"]; mi.Kind != "pyramid" || len(mi.Scales) != 2 || mi.Fusion != "any" {
		t.Fatalf("pyramid listing = %+v", mi)
	}
	if mi := byName["spikes"]; mi.Kind != "" || mi.Scales != nil || mi.Fusion != "" || mi.FusionWeights != nil {
		t.Fatalf("plain listing grew pyramid fields: %+v", mi)
	}

	// Batch scoring returns typed detections with per-scale breakdowns.
	eval := plateauSpiky("eval", 600, []int{150}, 380, 48, 11)
	var batch struct {
		Results []struct {
			Detections []struct {
				Start  int    `json:"start"`
				End    int    `json:"end"`
				Type   string `json:"type"`
				Scales []struct {
					Factor int `json:"factor"`
				} `json:"scales"`
			} `json:"detections"`
			Error string `json:"error"`
		} `json:"results"`
	}
	body := map[string]any{"series": []map[string]any{{"name": "eval", "values": eval.Values}}}
	if code := doJSON(t, "POST", ts.URL+"/models/multi/detect", body, &batch); code != 200 {
		t.Fatalf("batch detect = %d", code)
	}
	if len(batch.Results) != 1 || batch.Results[0].Error != "" {
		t.Fatalf("batch results = %+v", batch.Results)
	}
	dets := batch.Results[0].Detections
	if len(dets) == 0 {
		t.Fatal("pyramid batch scored no detections")
	}
	for _, d := range dets {
		switch d.Type {
		case "point", "contextual", "collective":
		default:
			t.Fatalf("detection %+v has unexpected type", d)
		}
		if len(d.Scales) == 0 {
			t.Fatalf("detection %+v has no per-scale breakdown", d)
		}
	}

	// The anomaly-type counter made it to /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `cdtserve_anomaly_types_total{model="multi"`) {
		t.Fatal("cdtserve_anomaly_types_total missing from /metrics")
	}

	// A streaming session over the pyramid tags live detections with the
	// firing scale and a type.
	var created createStreamResponse
	req := map[string]any{"model": "multi", "min": 0, "max": 500}
	if code := doJSON(t, "POST", ts.URL+"/streams", req, &created); code != 201 {
		t.Fatalf("stream create = %d", code)
	}
	var push struct {
		Detections []struct {
			Scale int    `json:"scale"`
			Type  string `json:"type"`
		} `json:"detections"`
	}
	if code := doJSON(t, "POST", ts.URL+"/streams/"+created.ID+"/points",
		map[string]any{"points": eval.Values}, &push); code != 200 {
		t.Fatalf("stream push = %d", code)
	}
	if len(push.Detections) == 0 {
		t.Fatal("pyramid stream scored no detections")
	}
	for _, d := range push.Detections {
		if d.Scale < 1 || d.Type == "" {
			t.Fatalf("stream detection %+v missing scale or type", d)
		}
	}
}

// dimFeed is a two-column feed whose "load" column is plateauSpiky's
// series (labels included) beside a quiet seasonal column.
func dimFeed(name string, spikes []int, pStart int, seed int64) *cdt.MultiSeries {
	load := plateauSpiky(name, 600, spikes, pStart, 48, seed)
	quiet := make([]float64, load.Len())
	for i := range quiet {
		quiet[i] = 10 + math.Sin(float64(i)/9)
	}
	return &cdt.MultiSeries{
		Name:      name,
		Dims:      []*cdt.Series{cdt.NewSeries("quiet", quiet), cdt.NewSeries("load", load.Values)},
		Anomalies: load.Anomalies,
	}
}

// TestServeDimPyramidBatchScoresColumn: a pyramid trained over column 1
// of a multivariate feed, served from a model directory, batch-scores
// that column's readings exactly as in-process DetectExplained does —
// the same readings its stream sessions take.
func TestServeDimPyramidBatchScoresColumn(t *testing.T) {
	train, err := dimFeed("train", []int{90, 200, 430}, 300, 7).Dimension(1)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := cdt.FitPyramid([]*cdt.Series{train}, cdt.Options{Omega: 5, Delta: 2}, cdt.PyramidConfig{
		Factors:    []int{1, 4},
		Aggregator: "max",
		Fusion:     cdt.Fusion{Policy: cdt.FuseWeighted, Threshold: 1},
		Dim:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.TrainFusion([]*cdt.Series{train}); err != nil {
		t.Fatal(err)
	}
	s, ts, dir := newTestServer(t, Config{})
	writePyramid(t, dir, "dim", pm)
	if _, err := s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}

	eval, err := dimFeed("eval", []int{150}, 380, 11).Dimension(1)
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		Results []struct {
			Detections []struct {
				Start int `json:"start"`
				End   int `json:"end"`
			} `json:"detections"`
			Error string `json:"error"`
		} `json:"results"`
	}
	body := map[string]any{"series": []map[string]any{{"name": "eval", "values": eval.Values}}}
	if code := doJSON(t, "POST", ts.URL+"/models/dim/detect", body, &batch); code != 200 {
		t.Fatalf("batch detect = %d", code)
	}
	if len(batch.Results) != 1 || batch.Results[0].Error != "" {
		t.Fatalf("batch results = %+v", batch.Results)
	}
	got := batch.Results[0].Detections
	want, err := pm.DetectExplained(context.Background(), eval)
	if err != nil {
		t.Fatalf("in-process DetectExplained on the column: %v", err)
	}
	if len(want) == 0 {
		t.Fatal("probe produced no detections; the comparison is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d detections, in-process %d", len(got), len(want))
	}
	for i, d := range want {
		if got[i].Start != d.Start || got[i].End != d.End {
			t.Errorf("detection %d: batch [%d,%d], in-process [%d,%d]", i, got[i].Start, got[i].End, d.Start, d.End)
		}
	}
}

// trainPyramidVariant retrains the pyramid from a different cut of data
// — the stand-in for a retrained pyramid candidate.
func trainPyramidVariant(tb testing.TB, seed int64) *cdt.PyramidModel {
	tb.Helper()
	pm, err := cdt.FitPyramid(
		[]*cdt.Series{plateauSpiky("train", 600, []int{70, 260, 400}, 320, 40, seed)},
		cdt.Options{Omega: 5, Delta: 2},
		cdt.PyramidConfig{Factors: []int{1, 4}, Aggregator: "max"},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return pm
}

// newPyramidStoreServer builds a store with pyramid "multi" v1 promoted
// and a retrained pyramid v2 published unpromoted, plus a server.
func newPyramidStoreServer(tb testing.TB) (*Server, string, *modelstore.Store) {
	tb.Helper()
	st, err := modelstore.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := trainPyramid(tb).Save(&v1); err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Publish("multi", v1.Bytes(), "cli", "v1"); err != nil {
		tb.Fatal(err)
	}
	if err := st.Promote("multi", 1); err != nil {
		tb.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := trainPyramidVariant(tb, 23).Save(&v2); err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Publish("multi", v2.Bytes(), "cli", "v2 candidate"); err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{Store: st})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s, newHTTPServer(tb, s), st
}

// TestPyramidShadowEndToEnd: a pyramid candidate shadows a pyramid
// incumbent — the same-kind comparison over fused point ranges — across
// both traffic paths, and the per-scale fire-rate gauges land on
// /metrics.
func TestPyramidShadowEndToEnd(t *testing.T) {
	s, ts, st := newPyramidStoreServer(t)

	// The same-kind gate cuts both ways: a plain candidate cannot shadow
	// a pyramid incumbent either.
	var plain bytes.Buffer
	if err := trainModel(t).Save(&plain); err != nil {
		t.Fatal(err)
	}
	v3, err := st.Publish("multi", plain.Bytes(), "cli", "plain candidate")
	if err != nil {
		t.Fatal(err)
	}
	var errResp struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", ts+"/models/multi/shadow", versionRequest{Version: v3.Version}, &errResp); code != 400 {
		t.Fatalf("plain candidate against pyramid incumbent = %d, want 400", code)
	}
	if !strings.Contains(errResp.Error, `serving kind "pyramid"`) {
		t.Fatalf("error %q does not name the serving kind", errResp.Error)
	}

	var sum ShadowSummary
	if code := doJSON(t, "POST", ts+"/models/multi/shadow", versionRequest{Version: 2}, &sum); code != 201 {
		t.Fatalf("pyramid shadow start = %d, want 201", code)
	}
	if sum.CandidateVersion != 2 {
		t.Fatalf("fresh summary = %+v", sum)
	}

	// Batch traffic feeds the candidate through the scoring queue.
	eval := plateauSpiky("eval", 600, []int{150}, 380, 48, 11)
	body := map[string]any{"series": []map[string]any{{"name": "eval", "values": eval.Values}}}
	for i := 0; i < 3; i++ {
		if code := doJSON(t, "POST", ts+"/models/multi/detect", body, nil); code != 200 {
			t.Fatalf("batch detect = %d", code)
		}
	}
	// Stream traffic mirrors point-for-point into a candidate pyramid
	// stream.
	var sess createStreamResponse
	if code := doJSON(t, "POST", ts+"/streams", map[string]any{"model": "multi", "min": 0, "max": 500}, &sess); code != 201 {
		t.Fatalf("stream create = %d", code)
	}
	if code := doJSON(t, "POST", ts+"/streams/"+sess.ID+"/points", map[string]any{"points": eval.Values}, nil); code != 200 {
		t.Fatalf("stream push = %d", code)
	}
	s.shadows.drain()

	if code := doJSON(t, "GET", ts+"/models/multi/shadow", nil, &sum); code != 200 {
		t.Fatalf("shadow summary = %d", code)
	}
	if sum.Windows == 0 {
		t.Fatal("pyramid shadow saw no windows")
	}
	if sum.IncumbentFired == 0 || sum.CandidateFired == 0 {
		t.Fatalf("a side never fired: %+v", sum)
	}
	if sum.Agreement < 0 || sum.Agreement > 1 {
		t.Fatalf("agreement %v out of range", sum.Agreement)
	}

	// Per-scale candidate fire rates are on /metrics, one family child
	// per pyramid scale.
	var metrics string
	{
		resp, err := http.Get(ts + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		metrics = string(b)
	}
	for _, want := range []string{
		`cdtserve_shadow_scale_fire_rate_bucket{model="multi",scale="x1",`,
		`cdtserve_shadow_scale_fire_rate_bucket{model="multi",scale="x4",`,
		`cdtserve_shadow_windows_total{model="multi",outcome="agree"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// Promoting the candidate retires the shadow, as for plain models.
	if code := doJSON(t, "POST", ts+"/models/multi/promote", versionRequest{Version: 2}, nil); code != 200 {
		t.Fatal("promote failed")
	}
	if code := doJSON(t, "GET", ts+"/models/multi/shadow", nil, nil); code != 404 {
		t.Fatal("shadow survived promotion of its candidate")
	}
}

func TestShadowStartRejectsPyramidCandidate(t *testing.T) {
	st, err := modelstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := trainModel(t).Save(&plain); err != nil {
		t.Fatal(err)
	}
	v1, err := st.Publish("m", plain.Bytes(), "publish", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Promote("m", v1.Version); err != nil {
		t.Fatal(err)
	}
	var pyr bytes.Buffer
	if err := trainPyramid(t).Save(&pyr); err != nil {
		t.Fatal(err)
	}
	v2, err := st.Publish("m", pyr.Bytes(), "publish", "")
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := newHTTPServer(t, s)

	var errResp struct {
		Error string `json:"error"`
	}
	code := doJSON(t, "POST", ts+"/models/m/shadow",
		map[string]any{"version": v2.Version}, &errResp)
	if code != http.StatusBadRequest {
		t.Fatalf("shadow start on pyramid candidate = %d, want 400", code)
	}
	if !strings.Contains(errResp.Error, "pyramid") {
		t.Fatalf("error %q does not name the artifact kind", errResp.Error)
	}
}

// newHTTPServer wraps a prebuilt Server in an httptest frontend.
func newHTTPServer(tb testing.TB, s *Server) string {
	tb.Helper()
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return ts.URL
}
