package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	cdt "cdt"
	"cdt/internal/modelstore"
)

// modelBytes serializes a model to its JSON document.
func modelBytes(tb testing.TB, m *cdt.Model) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// trainVariant trains a second "spikes"-compatible model from a
// different cut of data — the stand-in for a retrained candidate.
func trainVariant(tb testing.TB, seed int64) *cdt.Model {
	tb.Helper()
	model, err := cdt.Fit(
		[]*cdt.Series{spiky("train", 480, []int{70, 180, 290, 400}, seed)},
		cdt.Options{Omega: 5, Delta: 2},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return model
}

// newStoreServer builds a store with "spikes" v1 promoted and v2
// published unpromoted, plus a server over it.
func newStoreServer(tb testing.TB, cfg Config) (*Server, *httptest.Server, *modelstore.Store) {
	tb.Helper()
	st, err := modelstore.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Publish("spikes", modelBytes(tb, trainModel(tb)), "cli", "v1"); err != nil {
		tb.Fatal(err)
	}
	if err := st.Promote("spikes", 1); err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Publish("spikes", modelBytes(tb, trainVariant(tb, 23)), "cli", "v2 candidate"); err != nil {
		tb.Fatal(err)
	}
	cfg.Store = st
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, st
}

// batchDetect posts one batch request of n series against model name.
func batchDetect(tb testing.TB, ts *httptest.Server, name string, n int, seed int64) wireBatch {
	tb.Helper()
	req := batchRequest{}
	for i := 0; i < n; i++ {
		req.Series = append(req.Series, seriesPayload{
			Name:   fmt.Sprintf("s%d", i),
			Values: spiky("s", 300, []int{120, 240}, seed+int64(i)).Values,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/models/"+name+"/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var out wireBatch
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		tb.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("batch detect: status %d", resp.StatusCode)
	}
	return out
}

func metricsText(tb testing.TB, ts *httptest.Server) string {
	tb.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// TestModelLifecycleEndToEnd is the acceptance walk: publish a candidate
// next to the serving incumbent, shadow it against replayed batch and
// stream traffic, read the disagreement counters off /metrics and the
// summary endpoint, promote atomically under a live session, roll back —
// and find every transition in the audit log.
func TestModelLifecycleEndToEnd(t *testing.T) {
	s, ts, st := newStoreServer(t, Config{})

	// Serving v1.
	var models struct{ Models []ModelInfo }
	if code := doJSON(t, "GET", ts.URL+"/models", nil, &models); code != 200 {
		t.Fatalf("list: status %d", code)
	}
	if len(models.Models) != 1 || models.Models[0].Version != 1 {
		t.Fatalf("expected spikes v1 serving, got %+v", models.Models)
	}

	// A session opened before any shadow exists must survive everything.
	var preSession createStreamResponse
	if code := doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &preSession); code != 201 {
		t.Fatalf("create stream: status %d", code)
	}

	// No shadow yet: summary is 404.
	if code := doJSON(t, "GET", ts.URL+"/models/spikes/shadow", nil, nil); code != 404 {
		t.Fatalf("shadow summary before start: status %d", code)
	}
	// Shadowing the serving version is refused.
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/shadow", versionRequest{Version: 1}, nil); code != 400 {
		t.Fatal("shadowing the serving version was accepted")
	}
	var sum ShadowSummary
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/shadow", versionRequest{Version: 2}, &sum); code != 201 {
		t.Fatalf("shadow start: status %d", code)
	}
	if sum.CandidateVersion != 2 || sum.Windows != 0 {
		t.Fatalf("fresh shadow summary: %+v", sum)
	}

	// Replay batch traffic; every series also feeds the candidate.
	for i := 0; i < 4; i++ {
		batchDetect(t, ts, "spikes", 4, int64(100+i))
	}
	// Stream traffic through a session created under the shadow mirrors
	// point-for-point.
	var mirrored createStreamResponse
	if code := doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &mirrored); code != 201 {
		t.Fatalf("create mirrored stream: status %d", code)
	}
	feed := spiky("live", 300, []int{80, 220}, 31)
	if code := doJSON(t, "POST", ts.URL+"/streams/"+mirrored.ID+"/points", pushPointsRequest{Points: feed.Values}, nil); code != 200 {
		t.Fatal("push to mirrored stream failed")
	}
	s.shadows.drain()

	if code := doJSON(t, "GET", ts.URL+"/models/spikes/shadow", nil, &sum); code != 200 {
		t.Fatalf("shadow summary: status %d", code)
	}
	if sum.Windows == 0 {
		t.Fatal("shadow saw no windows after replayed traffic")
	}
	if sum.IncumbentFired == 0 {
		t.Fatal("incumbent never fired on spiked traffic")
	}
	if sum.Agreement < 0 || sum.Agreement > 1 {
		t.Fatalf("agreement %v out of range", sum.Agreement)
	}
	if sum.Agree+sum.IncumbentOnly+sum.CandidateOnly == 0 {
		t.Fatal("comparison produced no outcomes")
	}

	// The disagreement counters and fire-rate histograms are on /metrics.
	metrics := metricsText(t, ts)
	for _, want := range []string{
		`cdtserve_shadow_windows_total{model="spikes",outcome="agree"}`,
		`cdtserve_shadow_windows_total{model="spikes",outcome="incumbent_only"}`,
		`cdtserve_shadow_windows_total{model="spikes",outcome="candidate_only"}`,
		`cdtserve_shadow_fire_rate_bucket{model="spikes",role="incumbent",`,
		`cdtserve_shadow_fire_rate_bucket{model="spikes",role="candidate",`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// Promote v2. Atomic: pointer moves, registry swaps, shadow retires.
	var promoted map[string]any
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/promote", versionRequest{Version: 2}, &promoted); code != 200 {
		t.Fatalf("promote: status %d (%v)", code, promoted)
	}
	if m, _ := s.registry.Get("spikes"); m.version != 2 {
		t.Fatalf("serving version after promote = %d", m.version)
	}
	if code := doJSON(t, "GET", ts.URL+"/models/spikes/shadow", nil, nil); code != 404 {
		t.Fatal("shadow still active after its candidate was promoted")
	}

	// The pre-promote session is still alive and scoring (pinned model).
	if code := doJSON(t, "POST", ts.URL+"/streams/"+preSession.ID+"/points", pushPointsRequest{Points: feed.Values}, nil); code != 200 {
		t.Fatal("live session dropped by promote")
	}

	// Roll back to v1.
	var rolled map[string]any
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/rollback", nil, &rolled); code != 200 {
		t.Fatalf("rollback: status %d (%v)", code, rolled)
	}
	if m, _ := s.registry.Get("spikes"); m.version != 1 {
		t.Fatalf("serving version after rollback = %d", m.version)
	}

	// Every transition is in the audit log, in order.
	events, err := st.Audit(0)
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		event   string
		version int
	}
	var got []step
	for _, e := range events {
		got = append(got, step{e.Event, e.Version})
	}
	want := []step{
		{modelstore.EventPublish, 1},
		{modelstore.EventPromote, 1},
		{modelstore.EventPublish, 2},
		{modelstore.EventShadow, 2},  // started
		{modelstore.EventPromote, 2}, // via endpoint
		{modelstore.EventShadow, 2},  // stopped by promote
		{modelstore.EventRollback, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("audit log has %d events, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("audit[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestShadowStopEndpoint covers the explicit DELETE path and its audit
// trail.
func TestShadowStopEndpoint(t *testing.T) {
	_, ts, st := newStoreServer(t, Config{})
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/shadow", versionRequest{Version: 2}, nil); code != 201 {
		t.Fatalf("shadow start: status %d", code)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/models/spikes/shadow", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("shadow stop: status %d", resp.StatusCode)
	}
	if code := doJSON(t, "GET", ts.URL+"/models/spikes/shadow", nil, nil); code != 404 {
		t.Fatal("shadow survived DELETE")
	}
	events, err := st.Audit(0)
	if err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.Event != modelstore.EventShadow || last.Detail != "shadow stopped" {
		t.Fatalf("last audit event = %+v", last)
	}
}

// TestShadowCountsDetectWindows: the shadow counts the windows detection
// sweeps, n readings making n−ω−1 ω-windows. A batch series counts
// len(DetectWindows) of them, and a fresh session pushed its ω+1
// warm-up readings counts none.
func TestShadowCountsDetectWindows(t *testing.T) {
	s, ts, _ := newStoreServer(t, Config{})
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/shadow", versionRequest{Version: 2}, nil); code != 201 {
		t.Fatalf("shadow start: status %d", code)
	}
	const seed = 100
	batchDetect(t, ts, "spikes", 1, seed)
	s.shadows.drain()
	flags, err := trainModel(t).DetectWindows(cdt.NewSeries("s", spiky("s", 300, []int{120, 240}, seed).Values))
	if err != nil {
		t.Fatal(err)
	}
	var sum ShadowSummary
	if code := doJSON(t, "GET", ts.URL+"/models/spikes/shadow", nil, &sum); code != 200 {
		t.Fatalf("shadow summary: status %d", code)
	}
	if sum.Windows != uint64(len(flags)) {
		t.Fatalf("shadow counted %d windows for a 300-point series, DetectWindows %d", sum.Windows, len(flags))
	}

	var sess createStreamResponse
	if code := doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &sess); code != 201 {
		t.Fatalf("create stream: status %d", code)
	}
	warmUp := spiky("live", 5+1, nil, 31).Values // ω+1 readings
	if code := doJSON(t, "POST", ts.URL+"/streams/"+sess.ID+"/points", pushPointsRequest{Points: warmUp}, nil); code != 200 {
		t.Fatal("push failed")
	}
	before := sum.Windows
	if code := doJSON(t, "GET", ts.URL+"/models/spikes/shadow", nil, &sum); code != 200 {
		t.Fatalf("shadow summary: status %d", code)
	}
	if sum.Windows != before {
		t.Fatalf("a session pushed ω+1 readings counted %d windows, want 0", sum.Windows-before)
	}
}

// TestWindowCount: n readings make n−2 transition labels and n−ω−1
// ω-windows, as many as DetectWindows returns, and none before the
// (ω+2)-th reading.
func TestWindowCount(t *testing.T) {
	for _, c := range []struct{ points, omega, want int }{
		{0, 1, 0}, {2, 1, 0}, {3, 1, 1}, {0, 5, 0}, {6, 5, 0}, {7, 5, 1}, {20, 5, 14},
	} {
		if got := windowCount(c.points, c.omega); got != c.want {
			t.Errorf("windowCount(%d, %d) = %d, want %d", c.points, c.omega, got, c.want)
		}
	}
	m := trainModel(t)
	for _, n := range []int{7, 8, 20, 300} {
		flags, err := m.DetectWindows(cdt.NewSeries("s", spiky("s", n, nil, 5).Values))
		if err != nil {
			t.Fatal(err)
		}
		if got := windowCount(n, m.Opts.Omega); got != len(flags) {
			t.Errorf("windowCount(%d, %d) = %d, DetectWindows %d", n, m.Opts.Omega, got, len(flags))
		}
	}
}

// TestSessionShadowCountsWindowsAcrossResets: each push adds the windows
// its readings complete, however the readings are split into pushes, and
// a reset starts the count over, so a mirrored session counts
// len(DetectWindows) windows per run of at least ω+2 readings and none
// for a shorter run.
func TestSessionShadowCountsWindowsAcrossResets(t *testing.T) {
	_, ts, _ := newStoreServer(t, Config{})
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/shadow", versionRequest{Version: 2}, nil); code != 201 {
		t.Fatalf("shadow start: status %d", code)
	}
	var sess createStreamResponse
	if code := doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &sess); code != 201 {
		t.Fatalf("create stream: status %d", code)
	}
	m := trainModel(t)
	omega := m.Opts.Omega
	values := spiky("live", 200, []int{70, 150}, 41).Values
	want := uint64(0)
	// Runs of 3, ω+1, ω+2 and 120 readings, pushed in chunks.
	for _, chunks := range [][]int{{3}, {2, omega - 1}, {1, 1, omega}, {50, 1, 6, 63}} {
		if code := doJSON(t, "POST", ts.URL+"/streams/"+sess.ID+"/reset", nil, nil); code != 204 {
			t.Fatalf("reset: status %d", code)
		}
		n := 0
		for _, c := range chunks {
			if code := doJSON(t, "POST", ts.URL+"/streams/"+sess.ID+"/points", pushPointsRequest{Points: values[n : n+c]}, nil); code != 200 {
				t.Fatalf("push of %d readings: status %d", c, code)
			}
			n += c
		}
		if n >= omega+2 {
			flags, err := m.DetectWindows(cdt.NewSeries("run", values[:n]))
			if err != nil {
				t.Fatal(err)
			}
			want += uint64(len(flags))
		}
		var sum ShadowSummary
		if code := doJSON(t, "GET", ts.URL+"/models/spikes/shadow", nil, &sum); code != 200 {
			t.Fatalf("shadow summary: status %d", code)
		}
		if sum.Windows != want {
			t.Fatalf("after a run of %d readings pushed as %v: shadow counted %d windows, want %d", n, chunks, sum.Windows, want)
		}
	}
}

// TestLifecycleEndpointsRequireStore: a directory-backed server refuses
// the store-only endpoints instead of panicking or half-working.
func TestLifecycleEndpointsRequireStore(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/promote", versionRequest{Version: 1}, nil); code != 400 {
		t.Errorf("promote on dir-backed server: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/rollback", nil, nil); code != 400 {
		t.Errorf("rollback on dir-backed server: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/shadow", versionRequest{Version: 1}, nil); code != 400 {
		t.Errorf("shadow on dir-backed server: status %d", code)
	}
}

// TestHealthzUnreadyWhenStoreBroken: /healthz flips to 503 when the
// manifest can no longer be resolved.
func TestHealthzStoreReadiness(t *testing.T) {
	s, ts, _ := newStoreServer(t, Config{})
	var health map[string]any
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz: status %d (%v)", code, health)
	}
	if health["status"] != "ok" {
		t.Fatalf("health = %v", health)
	}
	_ = s // store dir is owned by t.TempDir; breaking it is exercised in modelstore's own tests
}

// stubRetrainer hands back a pre-serialized model and signals the call.
type stubRetrainer struct {
	doc    []byte
	called chan string
}

func (r *stubRetrainer) Retrain(name string, incumbent *cdt.Model) ([]byte, string, error) {
	select {
	case r.called <- name:
	default:
	}
	return r.doc, "stub retrain", nil
}

// TestDriftMarksStaleAndRetrains drives batch traffic whose fire rate
// sits far above the training baseline, with a tight bound and a tiny
// window, and expects: the stale flag on /metrics and /healthz, a
// single-flight background retrain publishing an unpromoted candidate,
// and the serving version untouched.
func TestDriftMarksStaleAndRetrains(t *testing.T) {
	stub := &stubRetrainer{called: make(chan string, 1)}
	s, ts, st := newStoreServer(t, Config{
		DriftWindow: 64,
		DriftBound:  0.02,
		Retrainer:   stub,
	})
	stub.doc = modelBytes(t, trainVariant(t, 77))

	// Spike-dense traffic: fire rate far above the ~1% training baseline.
	spikes := make([]int, 0, 30)
	for i := 10; i < 300; i += 10 {
		spikes = append(spikes, i)
	}
	req := batchRequest{Series: []seriesPayload{{Name: "hot", Values: spiky("hot", 300, spikes, 3).Values}}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/models/spikes/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	if stale, _ := s.registry.stale(); len(stale) != 1 || stale[0] != "spikes" {
		t.Fatalf("stale models = %v", stale)
	}
	var health map[string]any
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz: status %d", code)
	}
	if health["status"] != "degraded" {
		t.Fatalf("health status = %v, want degraded", health["status"])
	}
	if !strings.Contains(metricsText(t, ts), `cdtserve_model_stale{model="spikes"} 1`) {
		t.Error("stale gauge not on /metrics")
	}

	// The retrain fires once and publishes an unpromoted candidate.
	select {
	case name := <-stub.called:
		if name != "spikes" {
			t.Fatalf("retrained %q", name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retrainer never called")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		versions, current, err := st.Versions("spikes")
		if err != nil {
			t.Fatal(err)
		}
		if last := versions[len(versions)-1]; last.Source == "retrain" {
			if current == last.Version {
				t.Fatal("retrained candidate was auto-promoted")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retrained candidate never published")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m, _ := s.registry.Get("spikes"); m.version != 1 {
		t.Fatalf("serving version changed to %d during drift", m.version)
	}

	// Reload clears the stale flag (new baseline epoch).
	if code := doJSON(t, "POST", ts.URL+"/models/reload", nil, nil); code != 200 {
		t.Fatal("reload failed")
	}
	if stale, _ := s.registry.stale(); len(stale) != 0 {
		t.Fatalf("stale after reload: %v", stale)
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("health after reload = %v", health)
	}
}

// TestConcurrentShadowPromoteHammer races live batch scoring and stream
// pushes against promote/rollback flips and shadow start/stop churn.
// Run under -race (the repo's test gate does) this is the concurrency
// proof for the lifecycle paths.
func TestConcurrentShadowPromoteHammer(t *testing.T) {
	s, ts, _ := newStoreServer(t, Config{})
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/shadow", versionRequest{Version: 2}, nil); code != 201 {
		t.Fatalf("shadow start: status %d", code)
	}

	const iters = 30
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // batch traffic
		defer wg.Done()
		for i := 0; i < iters; i++ {
			batchDetect(t, ts, "spikes", 2, int64(i))
		}
	}()
	go func() { // stream traffic
		defer wg.Done()
		var sess createStreamResponse
		if code := doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &sess); code != 201 {
			t.Error("create stream failed")
			return
		}
		feed := spiky("live", 64, []int{30}, 9)
		for i := 0; i < iters; i++ {
			if code := doJSON(t, "POST", ts.URL+"/streams/"+sess.ID+"/points", pushPointsRequest{Points: feed.Values}, nil); code != 200 {
				t.Error("push failed mid-hammer")
				return
			}
		}
	}()
	go func() { // promote/rollback flips
		defer wg.Done()
		for i := 0; i < iters; i++ {
			doJSON(t, "POST", ts.URL+"/models/spikes/promote", versionRequest{Version: 2}, nil)
			doJSON(t, "POST", ts.URL+"/models/spikes/rollback", nil, nil)
		}
	}()
	go func() { // shadow churn
		defer wg.Done()
		for i := 0; i < iters; i++ {
			doJSON(t, "POST", ts.URL+"/models/spikes/shadow", versionRequest{Version: 2}, nil)
			req, _ := http.NewRequest("DELETE", ts.URL+"/models/spikes/shadow", nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	s.shadows.drain()

	// The server must still be coherent: healthz OK and a model serving.
	var health map[string]any
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz after hammer: status %d (%v)", code, health)
	}
	if s.registry.Len() != 1 {
		t.Fatalf("registry lost its model: %d", s.registry.Len())
	}
}

// denseSpikes is a 300-reading feed with a spike every ten points: its
// fire rate sits far above the ~1% training baseline of trainModel and
// trainVariant, so a tight drift bound trips on it.
func denseSpikes() []float64 {
	spikes := make([]int, 0, 30)
	for i := 10; i < 300; i += 10 {
		spikes = append(spikes, i)
	}
	return spiky("hot", 300, spikes, 3).Values
}

// TestDriftIgnoresSessionsOnReplacedVersion: a stream session opened on
// v1 keeps scoring v1 after v2 is promoted, but its readings describe
// v1's rules against v1's baseline and must not mark v2 stale.
func TestDriftIgnoresSessionsOnReplacedVersion(t *testing.T) {
	_, ts, _ := newStoreServer(t, Config{DriftWindow: 64, DriftBound: 0.02})
	var old createStreamResponse
	if code := doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &old); code != 201 {
		t.Fatalf("create stream: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/promote", versionRequest{Version: 2}, nil); code != 200 {
		t.Fatalf("promote: status %d", code)
	}
	fired := 0
	for i := 0; i < 4; i++ {
		var push struct {
			Detections []json.RawMessage `json:"detections"`
		}
		if code := doJSON(t, "POST", ts.URL+"/streams/"+old.ID+"/points", pushPointsRequest{Points: denseSpikes()}, &push); code != 200 {
			t.Fatalf("push to the v1 session: status %d", code)
		}
		fired += len(push.Detections)
	}
	if fired == 0 {
		t.Fatal("the v1 session never fired; the test is vacuous")
	}
	var health map[string]any
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz after v1-session traffic = %v, want ok", health)
	}
	if !strings.Contains(metricsText(t, ts), `cdtserve_model_stale{model="spikes"} 0`) {
		t.Error(`cdtserve_model_stale{model="spikes"} is not 0`)
	}
}

// TestRegistryReloadClearsStale: cdtserve's SIGHUP handler calls
// Registry().Reload() directly, and that reload must clear drift state
// exactly as POST /models/reload does.
func TestRegistryReloadClearsStale(t *testing.T) {
	s, ts, _ := newStoreServer(t, Config{DriftWindow: 64, DriftBound: 0.02})
	body, err := json.Marshal(batchRequest{Series: []seriesPayload{{Name: "hot", Values: denseSpikes()}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/models/spikes/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var health map[string]any
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 || health["status"] != "degraded" {
		t.Fatalf("healthz before reload = %v, want degraded", health)
	}

	if _, err := s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz after Registry().Reload() = %v, want ok", health)
	}
	if !strings.Contains(metricsText(t, ts), `cdtserve_model_stale{model="spikes"} 0`) {
		t.Error(`cdtserve_model_stale{model="spikes"} is not 0 after Registry().Reload()`)
	}
}

// TestDriftReloadHammer races drift-tracked batch and stream traffic
// against full reloads, promote/rollback flips and /healthz reads, so
// the race detector sees every path that touches a served record's
// tracker: observation, retirement, and the stale listing.
func TestDriftReloadHammer(t *testing.T) {
	s, ts, _ := newStoreServer(t, Config{DriftWindow: 64, DriftBound: 0.02})
	post := func(path string, v any) int {
		body, err := json.Marshal(v)
		if err != nil {
			t.Error(err)
			return 0
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	var sess createStreamResponse
	if code := doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &sess); code != 201 {
		t.Fatalf("create stream: status %d", code)
	}
	hot := denseSpikes()

	const iters = 20
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if code := post("/models/spikes/detect", batchRequest{Series: []seriesPayload{{Name: "hot", Values: hot}}}); code != 200 {
				t.Errorf("batch detect: status %d", code)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if code := post("/streams/"+sess.ID+"/points", pushPointsRequest{Points: hot[:100]}); code != 200 {
				t.Errorf("push: status %d", code)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := s.Registry().Reload(); err != nil {
				t.Error(err)
			}
			post("/models/spikes/promote", versionRequest{Version: 2})
			post("/models/spikes/rollback", nil)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Error(err)
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()

	if _, err := s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}
	if stale, _ := s.registry.stale(); len(stale) != 0 {
		t.Fatalf("stale after a final reload: %v", stale)
	}
}

// TestReloadPromoteHammer races full reloads against promotes and
// rollbacks. Each round runs Registry().Reload() beside an HTTP promote
// to v2 or a rollback to v1, then checks that the registry serves the
// version the store's current pointer names: a reload that read the old
// pointer must not swap its record in over the promote's newer one.
func TestReloadPromoteHammer(t *testing.T) {
	s, ts, st := newStoreServer(t, Config{})
	// Models that sort after "spikes" make a full reload read its pointer
	// early and load for a while before swapping, as a reload of a
	// many-model store does: the window a promote can land in.
	doc := modelBytes(t, trainModel(t))
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("tail%d", i)
		if _, err := st.Publish(name, doc, "cli", "padding"); err != nil {
			t.Fatal(err)
		}
		if err := st.Promote(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	// post runs on the round's goroutines, so it reports with t.Error.
	post := func(path, body string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s: status %d", path, resp.StatusCode)
		}
	}
	const rounds = 1000
	mismatched := 0
	for i := 0; i < rounds; i++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			if _, err := s.Registry().Reload(); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				post("/models/spikes/promote", `{"version":2}`)
			} else {
				post("/models/spikes/rollback", "")
			}
		}()
		close(start)
		wg.Wait()
		served, ok := s.registry.Get("spikes")
		current, _ := st.Current("spikes")
		if !ok || served.version != current.Version {
			mismatched++
		}
	}
	if mismatched > 0 {
		t.Fatalf("%d of %d rounds left the registry serving a version the store no longer points to", mismatched, rounds)
	}
}
