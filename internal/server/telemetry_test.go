package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"sort"
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

// discardWriter keeps a response's status and nothing else, so an
// allocation count does not depend on how large the response is.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// serveAllocs is the mean allocation count of one POST of body to path.
// The collector is off while it counts: a collection empties the
// sync.Pools the serving path draws from (request bodies, response
// buffers, engine marks), and their refills would land on whichever
// request follows it, more often the more garbage a body makes.
func serveAllocs(t *testing.T, h http.Handler, path string, body []byte) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(10, func() {
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		// A fixed ID: generated IDs of one hex digit skip an allocation.
		req.Header.Set("X-Request-ID", "alloc-probe")
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("POST %s = %d", path, w.code)
		}
	})
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServingAllocatesPerRequestAndSeriesNotPerDetection pins what
// cdtserve resolves once per served model rather than once per
// detection. A two-series batch body allocates the same whether its
// series are short and yield a few detections or four times as long
// with several hundred, on a plain model and on a pyramid; a stream
// push allocates a fixed count, however many readings it carries, plus
// what Stream.Push itself makes per detection. A telemetry child
// resolved on the scoring path (Vec.With renders its label values into
// fresh strings), or any other allocation per detection or per reading,
// fails it.
func TestServingAllocatesPerRequestAndSeriesNotPerDetection(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	s, ts, dir := newTestServer(t, Config{})
	writePyramid(t, dir, "multi", trainPyramid(t))
	if _, err := s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	for _, tc := range []struct {
		model string
		n     int // readings per series
		every int // spike spacing of the dense body
	}{
		{"spikes", 2000, 7},
		// Pyramid spikes 40 readings apart keep their fused runs apart,
		// so the dense body yields hundreds of detections, not one run
		// spanning each series.
		{"multi", 8000, 40},
	} {
		t.Run("batch "+tc.model, func(t *testing.T) {
			path := "/models/" + tc.model + "/detect"
			body := func(n int, spikes []int) ([]byte, int) {
				req := batchRequest{}
				for i := 0; i < 2; i++ {
					req.Series = append(req.Series, seriesPayload{
						Name:   fmt.Sprintf("s%d", i),
						Values: spiky("s", n, spikes, int64(i)).Values,
					})
				}
				var out wireBatch
				if code := doJSON(t, "POST", ts.URL+path, req, &out); code != http.StatusOK {
					t.Fatalf("POST %s = %d", path, code)
				}
				dets := 0
				for _, r := range out.Results {
					dets += len(r.Detections)
				}
				return mustMarshal(t, req), dets
			}
			var spikes []int
			for at := tc.every; at < tc.n-tc.every; at += tc.every {
				spikes = append(spikes, at)
			}
			sparse, few := body(tc.n/4, []int{tc.n / 8})
			dense, many := body(tc.n, spikes)
			if few == 0 || few > 20 || many < 300 {
				t.Fatalf("bodies yield %d and %d detections, want a few and several hundred", few, many)
			}
			if a, b := serveAllocs(t, h, path, sparse), serveAllocs(t, h, path, dense); a != b {
				t.Errorf("%d detections: %v allocations per request; %d detections: %v", few, a, many, b)
			}
		})
	}

	t.Run("stream push", func(t *testing.T) {
		push := func(n int, spikes []int) (allocs float64, dets int) {
			var created createStreamResponse
			doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &created)
			path := "/streams/" + created.ID + "/points"
			req := pushPointsRequest{Points: spiky("p", n, spikes, 5).Values}
			var out wirePush
			for i := 0; i < 3; i++ { // past the warm-up, each push fires alike
				if code := doJSON(t, "POST", ts.URL+path, req, &out); code != http.StatusOK {
					t.Fatalf("POST %s = %d", path, code)
				}
			}
			return serveAllocs(t, h, path, mustMarshal(t, req)), len(out.Detections)
		}
		quiet, none := push(32, nil)
		quietLong, noneLong := push(128, nil)
		busy, k := push(128, []int{8, 24, 40, 56, 72, 88, 104, 120})
		if none != 0 || noneLong != 0 || k < 20 {
			t.Fatalf("pushes yield %d, %d and %d detections, want none, none and several", none, noneLong, k)
		}
		if quietLong != quiet {
			t.Errorf("push of 32 readings: %v allocations; of 128: %v", quiet, quietLong)
		}
		// Stream.Push makes two per detection (the detection and its fired
		// predicates), the push's detections slice grows by doubling, and
		// tallying takes one rule-count array.
		if limit := quiet + float64(2*k+bits.Len(uint(k))+2); busy > limit {
			t.Errorf("push of %d detections: %v allocations, want at most %v (%v with none)", k, busy, limit, quiet)
		}
	})
}

// TestMetricsSeriesIgnoreRequestValues pins the series on /metrics to
// what the server resolves when it loads a model or starts a shadow.
// A store-backed server with drift on and a shadow running takes a
// round of traffic over every route; a second round changes every value
// a request controls (series names, lengths and readings, malformed
// bodies, unknown models, routes and session ids), and /metrics must
// list exactly the same series after it. A label made from request
// data (an error message, a formatted number, a name) fails it.
func TestMetricsSeriesIgnoreRequestValues(t *testing.T) {
	_, ts, _ := newStoreServer(t, Config{DriftWindow: 64, DriftBound: 0.02})
	if code := doJSON(t, "POST", ts.URL+"/models/spikes/shadow", versionRequest{Version: 2}, nil); code != http.StatusCreated {
		t.Fatalf("shadow start = %d", code)
	}

	send := func(method, path, body string, want int) []byte {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s %s = %d, want %d: %s", method, path, resp.StatusCode, want, out)
		}
		return out
	}
	traffic := func(round int) {
		batch := batchRequest{}
		for i := 0; i < 3; i++ {
			n := 200 + 97*round + 13*i
			batch.Series = append(batch.Series, seriesPayload{
				Name:   fmt.Sprintf("round%d-series%d", round, i),
				Values: spiky("s", n, []int{n/3 + round, 2*n/3 - i}, int64(10*round+i)).Values,
			})
		}
		// Too short to score: the series' error names it.
		batch.Series = append(batch.Series, seriesPayload{Name: fmt.Sprintf("short%d", round), Values: make([]float64, round+1)})
		send("POST", "/models/spikes/detect", string(mustMarshal(t, batch)), http.StatusOK)
		send("POST", fmt.Sprintf("/models/nope%d/detect", round), string(mustMarshal(t, batch)), http.StatusNotFound)
		send("POST", "/models/spikes/detect", fmt.Sprintf(`{"series":[{"name":"x","values":[1,%d,`, round), http.StatusBadRequest)
		send("POST", "/models/spikes/detect", fmt.Sprintf(`{"series%d":[]}`, round), http.StatusBadRequest)
		send("POST", "/models/spikes/detect", `{"series":[]}`, http.StatusBadRequest)
		send("GET", "/models/spikes/detect", "", http.StatusMethodNotAllowed)

		var created createStreamResponse
		if err := json.Unmarshal(send("POST", "/streams",
			fmt.Sprintf(`{"model":"spikes","min":%d,"max":%d}`, 50+round, 400+round), http.StatusCreated), &created); err != nil {
			t.Fatal(err)
		}
		points := string(mustMarshal(t, pushPointsRequest{Points: spiky("p", 64+round, []int{20 + round, 40}, int64(round)).Values}))
		send("POST", "/streams/"+created.ID+"/points", points, http.StatusOK)
		send("POST", "/streams/"+created.ID+"/points", fmt.Sprintf(`{"points":[%d,`, round), http.StatusBadRequest)
		send("POST", "/streams/"+created.ID+"/reset", "", http.StatusNoContent)
		send("DELETE", "/streams/"+created.ID, "", http.StatusNoContent)
		missing := fmt.Sprintf("/streams/missing%d", round)
		send("POST", missing+"/points", points, http.StatusNotFound)
		send("POST", missing+"/reset", "", http.StatusNotFound)
		send("DELETE", missing, "", http.StatusNotFound)
		send("POST", "/streams", fmt.Sprintf(`{"model":"nope%d"}`, round), http.StatusNotFound)
		send("POST", "/streams", fmt.Sprintf(`{"model":%d}`, round), http.StatusBadRequest)

		send("POST", "/models/spikes/shadow", fmt.Sprintf(`{"version":%d}`, 40+round), http.StatusNotFound)
		send("POST", "/models/spikes/promote", fmt.Sprintf(`{"version":%d}`, 40+round), http.StatusNotFound)
		send("GET", "/models/spikes/shadow", "", http.StatusOK)
		send("GET", fmt.Sprintf("/models/nope%d/shadow", round), "", http.StatusNotFound)
		send("GET", fmt.Sprintf("/no/such/route/%d", round), "", http.StatusNotFound)
		for _, path := range []string{"/healthz", "/models", "/debug/traces", "/metrics"} {
			send("GET", path, "", http.StatusOK)
		}
	}
	series := func() []string {
		var out []string
		for _, line := range strings.Split(metricsText(t, ts), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				out = append(out, line[:strings.LastIndexByte(line, ' ')])
			}
		}
		sort.Strings(out)
		return out
	}

	traffic(1)
	first := series()
	traffic(2)
	if second := series(); !slices.Equal(first, second) {
		var added []string
		for _, s := range second {
			if _, found := slices.BinarySearch(first, s); !found {
				added = append(added, s)
			}
		}
		t.Fatalf("/metrics lists %d series after round 1 and %d after round 2, new: %v", len(first), len(second), added)
	}
	t.Logf("%d series after each round", len(first))
}
