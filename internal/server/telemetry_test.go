package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fetch GETs a URL and returns status, body, and headers.
func fetch(tb testing.TB, url string) (int, string, http.Header) {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestMetricsScrape is the /metrics smoke the CI gate runs: after real
// traffic (batch detect + a stream session), the Prometheus exposition
// must carry the acceptance families — request latency histograms,
// request counters, and stream session gauges — and count paths no
// route matches under endpoint "other". /metrics is the only counter
// surface: the public handler has no /debug/vars.
func TestMetricsScrape(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	// Traffic: one batch detect, one stream round trip, a 404 from a
	// route, and two paths no route matches.
	feed := spiky("feed", 300, []int{120, 240}, 99)
	doJSON(t, "POST", ts.URL+"/models/spikes/detect",
		batchRequest{Series: []seriesPayload{{Name: "feed", Values: feed.Values}}}, nil)
	var created createStreamResponse
	doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &created)
	doJSON(t, "POST", ts.URL+"/streams/"+created.ID+"/points", pushPointsRequest{Points: feed.Values}, nil)
	doJSON(t, "POST", ts.URL+"/models/nope/detect",
		batchRequest{Series: []seriesPayload{{Name: "x", Values: []float64{1}}}}, nil)
	if code, _, _ := fetch(t, ts.URL+"/no/such/route"); code != http.StatusNotFound {
		t.Errorf("unmatched path = %d, want 404", code)
	}
	if code, _, _ := fetch(t, ts.URL+"/debug/vars"); code != http.StatusNotFound {
		t.Errorf("public /debug/vars = %d, want 404", code)
	}

	code, body, hdr := fetch(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	for _, want := range []string{
		`cdtserve_http_requests_total{code="2xx",endpoint="batch_detect"} 1`,
		`cdtserve_http_requests_total{code="4xx",endpoint="batch_detect"} 1`,
		`cdtserve_http_requests_total{code="4xx",endpoint="other"} 2`,
		`cdtserve_http_request_seconds_count{endpoint="other"} 2`,
		`cdtserve_http_request_seconds_bucket{endpoint="batch_detect",le="+Inf"} 2`,
		`cdtserve_http_request_seconds_count{endpoint="stream_push"} 1`,
		`cdtserve_http_in_flight 1`, // the /metrics request itself
		`cdtserve_stream_sessions_active 1`,
		`cdtserve_stream_sessions_evicted_total 0`,
		`cdtserve_stream_push_seconds_count 1`,
		`cdtserve_batch_series_total 1`,
		`cdtserve_models_loaded 1`,
		`cdtserve_detections_total{source="batch"}`,
		`cdtserve_detections_total{source="stream"}`,
		`# TYPE cdtserve_http_request_seconds histogram`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRequestIDs: every response carries X-Request-ID; an inbound ID is
// honored (so IDs survive proxy hops), a missing one is generated.
func TestRequestIDs(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	_, _, hdr := fetch(t, ts.URL+"/healthz")
	if hdr.Get("X-Request-ID") == "" {
		t.Error("response lacks a generated X-Request-ID")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "upstream-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "upstream-7" {
		t.Errorf("inbound request id not honored: got %q", got)
	}
}

// syncBuffer serializes concurrent writes from the access-log handler
// against the test's reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestAccessLog: with Config.AccessLog set, each request produces one
// structured line carrying endpoint, status, and the request ID.
func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts, _ := newTestServer(t, Config{AccessLog: logger})

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "log-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The log line lands after the response is flushed; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		out := buf.String()
		if strings.Contains(out, `"id":"log-probe-1"`) {
			for _, want := range []string{`"endpoint":"healthz"`, `"status":200`, `"method":"GET"`} {
				if !strings.Contains(out, want) {
					t.Errorf("access log missing %s in %s", want, out)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no access log line for request id log-probe-1; log: %q", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDebugHandler: the opt-in debug surface serves pprof, the runtime's
// expvars, and the Prometheus exposition — and is not reachable through
// Handler().
func TestDebugHandler(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/vars", "/metrics"} {
		if code, _, _ := fetch(t, dbg.URL+path); code != 200 {
			t.Errorf("debug %s = %d, want 200", path, code)
		}
	}
	// The public handler must not expose pprof.
	if code, _, _ := fetch(t, ts.URL+"/debug/pprof/"); code == 200 {
		t.Error("public handler serves /debug/pprof/")
	}
}
