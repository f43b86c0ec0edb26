package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	cdt "cdt"
)

// spiky generates a smooth seasonal series with labeled spike anomalies,
// the shape of the paper's SGE sensor feeds.
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

func trainModel(tb testing.TB) *cdt.Model {
	tb.Helper()
	model, err := cdt.Fit(
		[]*cdt.Series{spiky("train", 500, []int{90, 200, 330, 430}, 7)},
		cdt.Options{Omega: 5, Delta: 2},
	)
	if err != nil {
		tb.Fatal(err)
	}
	if model.NumRules() == 0 {
		tb.Fatal("trained model has no rules")
	}
	return model
}

func writeModel(tb testing.TB, dir, name string, m *cdt.Model) {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// newTestServer builds a server over a temp model dir holding one model
// named "spikes", plus an httptest frontend.
func newTestServer(tb testing.TB, cfg Config) (*Server, *httptest.Server, string) {
	tb.Helper()
	dir := tb.TempDir()
	writeModel(tb, dir, "spikes", trainModel(tb))
	cfg.ModelDir = dir
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, dir
}

// doJSON issues a request with a JSON body and decodes a JSON response.
func doJSON(tb testing.TB, method, url string, body, out any) int {
	tb.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			tb.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			tb.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthzAndModelList(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "ok" || health.Models != 1 {
		t.Fatalf("healthz = %+v", health)
	}
	var list struct {
		Models []ModelInfo `json:"models"`
	}
	if code := doJSON(t, "GET", ts.URL+"/models", nil, &list); code != 200 {
		t.Fatalf("models = %d", code)
	}
	if len(list.Models) != 1 || list.Models[0].Name != "spikes" {
		t.Fatalf("models = %+v", list.Models)
	}
	if list.Models[0].Omega != 5 || list.Models[0].Delta != 2 || list.Models[0].NumRules == 0 {
		t.Fatalf("model info = %+v", list.Models[0])
	}
}

func TestBatchDetectReturnsRuleText(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	feed := spiky("feed", 300, []int{120, 240}, 99)
	req := batchRequest{Series: []seriesPayload{
		{Name: "feed", Values: feed.Values},
		{Name: "quiet", Values: spiky("quiet", 200, nil, 5).Values},
	}}
	var resp wireBatch
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/detect", req, &resp); code != 200 {
		t.Fatalf("detect = %d", code)
	}
	if resp.Model != "spikes" || len(resp.Results) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Results[0].Name != "feed" || resp.Results[1].Name != "quiet" {
		t.Fatalf("result order not preserved: %+v", resp.Results)
	}
	spiked := resp.Results[0]
	if spiked.Error != "" || len(spiked.Detections) == 0 {
		t.Fatalf("expected detections on the spiked feed, got %+v", spiked)
	}
	for _, d := range spiked.Detections {
		if len(d.Rules) == 0 {
			t.Fatalf("detection %+v carries no fired rules", d)
		}
		for _, r := range d.Rules {
			if r.Index < 1 || r.Text == "" {
				t.Fatalf("fired rule %+v lacks index/text", r)
			}
			if !strings.Contains(r.Text, "[") {
				t.Fatalf("rule text %q does not look like a composition predicate", r.Text)
			}
		}
		if d.End != d.Start+4 { // omega = 5
			t.Fatalf("window bounds %+v inconsistent with omega", d)
		}
	}
	if len(resp.Results[1].Detections) != 0 {
		t.Errorf("quiet series produced detections: %+v", resp.Results[1].Detections)
	}
}

func TestStreamSessionRoundTrip(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	var created createStreamResponse
	code := doJSON(t, "POST", ts.URL+"/streams",
		createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create stream = %d", code)
	}
	if created.ID == "" || created.Omega != 5 || created.Model != "spikes" {
		t.Fatalf("created = %+v", created)
	}

	// Replay a synthetic SGE feed with live incidents in two chunks.
	feed := spiky("live", 300, []int{120, 240}, 3)
	streamURL := ts.URL + "/streams/" + created.ID
	var total []wireStreamDetection
	for _, chunk := range [][]float64{feed.Values[:150], feed.Values[150:]} {
		var resp wirePush
		if code := doJSON(t, "POST", streamURL+"/points", pushPointsRequest{Points: chunk}, &resp); code != 200 {
			t.Fatalf("push = %d", code)
		}
		total = append(total, resp.Detections...)
		if !resp.Ready {
			t.Fatal("stream not ready after 150+ points")
		}
	}
	if len(total) == 0 {
		t.Fatal("no detections over a feed with two incidents")
	}
	for _, d := range total {
		if len(d.Rules) == 0 || d.Rules[0].Text == "" {
			t.Fatalf("stream detection %+v carries no human-readable rule", d)
		}
	}

	// Reset clears the window state.
	if code := doJSON(t, "POST", streamURL+"/reset", nil, nil); code != http.StatusNoContent {
		t.Fatalf("reset = %d", code)
	}
	var after wirePush
	if code := doJSON(t, "POST", streamURL+"/points", pushPointsRequest{Points: feed.Values[:3]}, &after); code != 200 {
		t.Fatalf("push after reset = %d", code)
	}
	if after.PointsConsumed != 3 {
		t.Fatalf("points consumed after reset = %d, want 3", after.PointsConsumed)
	}

	// Delete closes the session; further pushes 404.
	if code := doJSON(t, "DELETE", streamURL, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete = %d", code)
	}
	if code := doJSON(t, "POST", streamURL+"/points", pushPointsRequest{Points: []float64{1}}, nil); code != http.StatusNotFound {
		t.Fatalf("push after delete = %d, want 404", code)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown model batch", "POST", "/models/nope/detect", batchRequest{Series: []seriesPayload{{Name: "x", Values: []float64{1}}}}, 404},
		{"empty series", "POST", "/models/spikes/detect", batchRequest{}, 400},
		{"unknown stream model", "POST", "/streams", createStreamRequest{Model: "nope", Min: 0, Max: 1}, 404},
		{"degenerate scale", "POST", "/streams", createStreamRequest{Model: "spikes", Min: 5, Max: 5}, 400},
		{"unknown stream push", "POST", "/streams/deadbeef/points", pushPointsRequest{Points: []float64{1}}, 404},
		{"unknown stream delete", "DELETE", "/streams/deadbeef", nil, 404},
		{"unknown field", "POST", "/streams", map[string]any{"model": "spikes", "mim": 0, "max": 1}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errResp errorResponse
			if code := doJSON(t, tc.method, ts.URL+tc.path, tc.body, &errResp); code != tc.want {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, code, tc.want)
			}
			if errResp.Error == "" {
				t.Fatal("error response has no message")
			}
		})
	}

	// Degenerate-scale rejections must explain both failure modes of
	// Scale (zero-collapse and clamping).
	var errResp errorResponse
	doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 5, Max: 5}, &errResp)
	for _, want := range []string{"normalize to 0", "clamp"} {
		if !strings.Contains(errResp.Error, want) {
			t.Errorf("scale error %q does not mention %q", errResp.Error, want)
		}
	}

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/models/spikes/detect", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed JSON = %d, want 400", resp.StatusCode)
	}
}

func TestReloadSwapsAndAddsModels(t *testing.T) {
	_, ts, dir := newTestServer(t, Config{})

	// Add a second model and reload.
	writeModel(t, dir, "spikes-v2", trainModel(t))
	var rel struct {
		Models int `json:"models"`
	}
	if code := doJSON(t, "POST", ts.URL+"/models/reload", nil, &rel); code != 200 {
		t.Fatalf("reload = %d", code)
	}
	if rel.Models != 2 {
		t.Fatalf("reload loaded %d models, want 2", rel.Models)
	}
	var list struct {
		Models []ModelInfo `json:"models"`
	}
	doJSON(t, "GET", ts.URL+"/models", nil, &list)
	if len(list.Models) != 2 || list.Models[0].Name != "spikes" || list.Models[1].Name != "spikes-v2" {
		t.Fatalf("models after reload = %+v", list.Models)
	}
}

func TestReloadFailureKeepsServing(t *testing.T) {
	_, ts, dir := newTestServer(t, Config{})
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var errResp errorResponse
	if code := doJSON(t, "POST", ts.URL+"/models/reload", nil, &errResp); code != 500 {
		t.Fatalf("reload with corrupt artifact = %d, want 500", code)
	}
	if !strings.Contains(errResp.Error, "broken.json") {
		t.Errorf("reload error %q does not name the corrupt file", errResp.Error)
	}
	// The previous model set must still serve.
	req := batchRequest{Series: []seriesPayload{{Name: "f", Values: spiky("f", 300, []int{120}, 1).Values}}}
	var resp wireBatch
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/detect", req, &resp); code != 200 {
		t.Fatalf("detect after failed reload = %d", code)
	}
	if resp.Results[0].Error != "" {
		t.Fatalf("detect after failed reload errored: %s", resp.Results[0].Error)
	}
}

func TestSessionTTLEviction(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{SessionTTL: time.Hour})
	var created createStreamResponse
	doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 0, Max: 1}, &created)
	if s.sessions.Len() != 1 {
		t.Fatalf("sessions = %d, want 1", s.sessions.Len())
	}
	// Simulate the janitor firing far in the future.
	s.sessions.evictIdle(time.Now().Add(2 * time.Hour))
	if s.sessions.Len() != 0 {
		t.Fatalf("idle session survived eviction: %d live", s.sessions.Len())
	}
	if code := doJSON(t, "POST", ts.URL+"/streams/"+created.ID+"/points", pushPointsRequest{Points: []float64{1}}, nil); code != 404 {
		t.Fatalf("push to evicted session = %d, want 404", code)
	}
}

func TestRegistryRejectsEmptyOrMissingDir(t *testing.T) {
	if _, err := newRegistry(t.TempDir(), nil, newServerMetrics()); err == nil {
		t.Error("empty model dir accepted")
	}
	if _, err := newRegistry(filepath.Join(t.TempDir(), "nope"), nil, newServerMetrics()); err == nil {
		t.Error("missing model dir accepted")
	}
}

// Oversized bodies map to 413 on both pooled-body endpoints, sent with a
// Content-Length or chunked.
func TestBodyLimit(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxBodyBytes: 1024})
	var created createStreamResponse
	if code := doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &created); code != http.StatusCreated {
		t.Fatalf("create stream = %d", code)
	}
	batch, _ := json.Marshal(batchRequest{Series: []seriesPayload{{Name: "big", Values: make([]float64, 4096)}}})
	push, _ := json.Marshal(pushPointsRequest{Points: make([]float64, 4096)})
	for path, body := range map[string][]byte{"/models/spikes/detect": batch, "/streams/" + created.ID + "/points": push} {
		for name, rd := range map[string]io.Reader{"sized": bytes.NewReader(body), "chunked": chunked{bytes.NewReader(body)}} {
			if code, out := post(t, ts.URL+path, rd); code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s %s oversized body = %d, want %d: %s", name, path, code, http.StatusRequestEntityTooLarge, out)
			}
		}
	}
}
