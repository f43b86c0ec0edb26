package server

// End-to-end coverage for request tracing and per-rule attribution:
// traceparent honor/generate round-trips, the /debug/traces span-tree
// shape for a sampled batch detect, rule/scale attribution metrics on
// /metrics with bounded index labels, tail retention of slow requests in
// the same span ring, drift naming its top rule on /healthz, and
// shadow-worker log lines carrying the originating request ID.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	cdt "cdt"
	"cdt/internal/trace"
)

// getTraces fetches /debug/traces (optionally filtered to one trace)
// and decodes the span list.
func getTraces(tb testing.TB, base, traceID string) []trace.SpanData {
	tb.Helper()
	url := base + "/debug/traces"
	if traceID != "" {
		url += "?trace=" + traceID
	}
	var out tracesResponse
	if code := doJSON(tb, "GET", url, nil, &out); code != 200 {
		tb.Fatalf("debug/traces = %d", code)
	}
	return out.Spans
}

// TestTraceBatchDetectSpanTree samples one pyramid batch detect at rate
// 1 and checks the acceptance-shape trace: request → batch_pool →
// series → detect → scale_sweep/engine_sweep → fusion_decide, all under
// the trace ID the response's traceparent header advertises.
func TestTraceBatchDetectSpanTree(t *testing.T) {
	tr := trace.New(trace.Config{SampleRate: 1})
	s, ts, dir := newTestServer(t, Config{Tracer: tr})
	writePyramid(t, dir, "multi", trainPyramid(t))
	if _, err := s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}

	req := batchRequest{Series: []seriesPayload{{
		Name:   "probe",
		Values: plateauSpiky("probe", 300, []int{120, 240}, 60, 24, 3).Values,
	}}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/models/multi/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("detect = %d", resp.StatusCode)
	}
	tp := resp.Header.Get("traceparent")
	traceID, _, sampled, ok := trace.ParseTraceparent(tp)
	if !ok || !sampled {
		t.Fatalf("response traceparent %q not a sampled traceparent", tp)
	}

	spans := getTraces(t, ts.URL, traceID)
	byName := map[string][]trace.SpanData{}
	for _, sd := range spans {
		if sd.TraceID != traceID {
			t.Fatalf("span %q has trace %s, filter asked for %s", sd.Name, sd.TraceID, traceID)
		}
		byName[sd.Name] = append(byName[sd.Name], sd)
	}
	for _, name := range []string{"request", "batch_pool", "series", "detect", "fusion_decide"} {
		if len(byName[name]) != 1 {
			t.Fatalf("want exactly one %q span, got %d (spans: %v)", name, len(byName[name]), names(spans))
		}
	}
	// Two pyramid scales: one sweep span and one engine sweep each.
	if len(byName["scale_sweep"]) != 2 || len(byName["engine_sweep"]) != 2 {
		t.Fatalf("want 2 scale_sweep + 2 engine_sweep spans, got %d + %d",
			len(byName["scale_sweep"]), len(byName["engine_sweep"]))
	}

	// Parent links stitch the tree together.
	parentOf := map[string]string{
		"batch_pool":    "request",
		"series":        "batch_pool",
		"detect":        "series",
		"scale_sweep":   "detect",
		"fusion_decide": "detect",
		"engine_sweep":  "scale_sweep",
	}
	spanIDs := map[string]map[string]bool{}
	for _, sd := range spans {
		if spanIDs[sd.Name] == nil {
			spanIDs[sd.Name] = map[string]bool{}
		}
		spanIDs[sd.Name][sd.SpanID] = true
	}
	for child, parent := range parentOf {
		for _, sd := range byName[child] {
			if !spanIDs[parent][sd.ParentID] {
				t.Errorf("%q span parent %s is not a %q span", child, sd.ParentID, parent)
			}
		}
	}
	if byName["request"][0].ParentID != "" {
		t.Errorf("request span has parent %q, want root", byName["request"][0].ParentID)
	}
	if got := byName["batch_pool"][0].Attrs["model"]; got != "multi" {
		t.Errorf("batch_pool model attr = %q", got)
	}
}

func names(spans []trace.SpanData) []string {
	out := make([]string, len(spans))
	for i, sd := range spans {
		out[i] = sd.Name
	}
	return out
}

// TestTraceparentPropagation checks the W3C header contract with head
// sampling off: a sampled inbound traceparent forces a trace that
// continues the upstream trace ID and parents the request span on the
// upstream span; an unsampled inbound header keeps the request
// untraced and un-headered.
func TestTraceparentPropagation(t *testing.T) {
	tr := trace.New(trace.Config{SampleRate: 0})
	_, ts, _ := newTestServer(t, Config{Tracer: tr})

	const upTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const upSpan = "00f067aa0ba902b7"
	req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+upTrace+"-"+upSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID, _, sampled, ok := trace.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || !sampled || traceID != upTrace {
		t.Fatalf("response traceparent %q, want sampled continuation of %s",
			resp.Header.Get("traceparent"), upTrace)
	}
	spans := getTraces(t, ts.URL, upTrace)
	if len(spans) != 1 || spans[0].Name != "request" || spans[0].ParentID != upSpan {
		t.Fatalf("spans under upstream trace = %+v, want one request span parented on %s", spans, upSpan)
	}

	// flags 00: the upstream decided not to sample; honor it.
	req, err = http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	const offTrace = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab"
	req.Header.Set("traceparent", "00-"+offTrace+"-"+upSpan+"-00")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("traceparent"); got != "" {
		t.Fatalf("unsampled inbound produced response traceparent %q", got)
	}
	if spans := getTraces(t, ts.URL, offTrace); len(spans) != 0 {
		t.Fatalf("unsampled inbound recorded %d spans", len(spans))
	}
}

// TestRuleAttributionMetrics scores both artifact kinds and checks the
// exposition: rule_fired children keyed by stable bounded indices (r<i>
// for the plain model, x<factor>.r<i> for the pyramid), per-scale sweep
// latency histograms for the pyramid only, and no rendered rule text
// anywhere in a label.
func TestRuleAttributionMetrics(t *testing.T) {
	s, ts, dir := newTestServer(t, Config{})
	writePyramid(t, dir, "multi", trainPyramid(t))
	if _, err := s.Registry().Reload(); err != nil {
		t.Fatal(err)
	}

	for model, series := range map[string]*cdt.Series{
		"spikes": spiky("probe", 300, []int{60, 120, 240}, 3),
		"multi":  plateauSpiky("probe", 300, []int{120, 240}, 60, 24, 3),
	} {
		body, err := json.Marshal(batchRequest{Series: []seriesPayload{{Name: "probe", Values: series.Values}}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/models/"+model+"/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("detect %s = %d", model, resp.StatusCode)
		}
	}

	metrics := metricsText(t, ts)
	plainFired := regexp.MustCompile(`cdtserve_rule_fired_total\{model="spikes",rule="r\d+"\} [1-9]`)
	pyramidFired := regexp.MustCompile(`cdtserve_rule_fired_total\{model="multi",rule="x\d+\.r\d+"\} [1-9]`)
	if !plainFired.MatchString(metrics) {
		t.Error("no plain-model rule_fired child with a positive count on /metrics")
	}
	if !pyramidFired.MatchString(metrics) {
		t.Error("no pyramid rule_fired child with a positive count on /metrics")
	}
	for _, want := range []string{
		`cdtserve_scale_sweep_seconds_bucket{model="multi",scale="x1",`,
		`cdtserve_scale_sweep_seconds_bucket{model="multi",scale="x4",`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("missing %s on /metrics", want)
		}
	}
	if strings.Contains(metrics, `cdtserve_scale_sweep_seconds_bucket{model="spikes"`) {
		t.Error("plain model grew scale-sweep histograms")
	}
	// metriclabel's substance: every rule label is a bounded index, never
	// rendered predicate text.
	ruleLabel := regexp.MustCompile(`cdtserve_rule_fired_total\{model="[^"]*",rule="([^"]*)"\}`)
	validLabel := regexp.MustCompile(`^(r\d+|x\d+\.r\d+|other)$`)
	for _, m := range ruleLabel.FindAllStringSubmatch(metrics, -1) {
		if !validLabel.MatchString(m[1]) {
			t.Errorf("rule label %q is not a bounded index", m[1])
		}
	}
}

// TestSlowRequestRing: with head sampling off, the tracer keeps exactly
// the requests at least its SlowThreshold slow, each as a root-only
// request span carrying what an operator needs to find it again.
func TestSlowRequestRing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tracer *trace.Tracer
		kept   bool
	}{
		{"slow", trace.New(trace.Config{SlowThreshold: time.Nanosecond}), true},
		{"fast", trace.New(trace.Config{SlowThreshold: time.Hour}), false},
		{"no tracer", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts, _ := newTestServer(t, Config{Tracer: tc.tracer})
			_, _, hdr := fetch(t, ts.URL+"/healthz")
			if tp := hdr.Get("traceparent"); tp != "" {
				t.Errorf("unsampled request advertised traceparent %q", tp)
			}
			spans := getTraces(t, ts.URL, "")
			if !tc.kept {
				if len(spans) != 0 {
					t.Fatalf("kept %d spans, want none: %+v", len(spans), spans)
				}
				return
			}
			if len(spans) != 1 {
				t.Fatalf("kept %d spans, want the one request span: %+v", len(spans), spans)
			}
			sd := spans[0]
			want := map[string]string{
				"method": "GET", "path": "/healthz", "request_id": hdr.Get("X-Request-ID"),
				"endpoint": "healthz", "status": "200",
			}
			if sd.Name != "request" || sd.ParentID != "" || len(sd.TraceID) != 32 || sd.DurationMS <= 0 {
				t.Errorf("slow span = %+v, want a timed root request span with a trace ID", sd)
			}
			if !reflect.DeepEqual(sd.Attrs, want) {
				t.Errorf("slow span attrs = %v, want %v", sd.Attrs, want)
			}
		})
	}
}

// TestSlowRequestExemplarCarriesTraceID: a request both sampled and slow
// is kept once, as its sampled span tree, under the trace ID its
// traceparent response header advertised.
func TestSlowRequestExemplarCarriesTraceID(t *testing.T) {
	tr := trace.New(trace.Config{SampleRate: 1, SlowThreshold: time.Nanosecond})
	_, ts, _ := newTestServer(t, Config{Tracer: tr})

	_, _, hdr := fetch(t, ts.URL+"/healthz")
	traceID, _, _, ok := trace.ParseTraceparent(hdr.Get("traceparent"))
	if !ok {
		t.Fatalf("no traceparent on response: %q", hdr.Get("traceparent"))
	}
	var roots []trace.SpanData
	for _, sd := range getTraces(t, ts.URL, "") {
		if sd.Name == "request" {
			roots = append(roots, sd)
		}
	}
	if len(roots) != 1 || roots[0].TraceID != traceID ||
		roots[0].Attrs["request_id"] != hdr.Get("X-Request-ID") || roots[0].Attrs["endpoint"] != "healthz" {
		t.Fatalf("request spans = %+v, want one under trace %s", roots, traceID)
	}
}

// TestSlowRequestsStayPerServer: each Server keeps its slow requests in
// its own tracer, so two servers in one process never see each other's
// records on any surface, the debug mux's /debug/vars included.
func TestSlowRequestsStayPerServer(t *testing.T) {
	slow := func() Config {
		return Config{Tracer: trace.New(trace.Config{SlowThreshold: time.Nanosecond})}
	}
	_, a, _ := newTestServer(t, slow())
	sb, b, _ := newTestServer(t, slow())
	dbg := httptest.NewServer(sb.DebugHandler())
	defer dbg.Close()

	_, _, hdr := fetch(t, a.URL+"/healthz")
	id := hdr.Get("X-Request-ID")
	if spans := getTraces(t, a.URL, ""); len(spans) != 1 || spans[0].Attrs["request_id"] != id {
		t.Fatalf("server A kept %+v, want its request %s", spans, id)
	}
	for _, url := range []string{b.URL + "/debug/traces", b.URL + "/metrics", dbg.URL + "/debug/traces", dbg.URL + "/debug/vars"} {
		if _, body, _ := fetch(t, url); strings.Contains(body, id) {
			t.Errorf("server B's %s shows server A's request %s", url, id)
		}
	}
}

// raceEnabled is set by race_test.go under the race detector, which
// drops sync.Pool items at random and so makes allocation counts vary.
var raceEnabled bool

// TestUnkeptRequestAllocatesNothing: a tracer that neither samples nor
// keeps a request adds no allocation to it.
func TestUnkeptRequestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	allocs := func(tr *trace.Tracer) float64 {
		s, _, _ := newTestServer(t, Config{Tracer: tr})
		h := s.Handler()
		req := httptest.NewRequest("GET", "/healthz", nil)
		// A fixed inbound ID: generated IDs of one hex digit skip an
		// allocation, which would skew whichever run goes first.
		req.Header.Set("X-Request-ID", "alloc-probe")
		return testing.AllocsPerRun(200, func() {
			h.ServeHTTP(httptest.NewRecorder(), req)
		})
	}
	untraced := allocs(nil)
	if traced := allocs(trace.New(trace.Config{SlowThreshold: time.Hour})); traced != untraced {
		t.Fatalf("unsampled fast request: %v allocs with a tracer, %v without", traced, untraced)
	}
}

// TestDriftNamesTopRuleOnHealthz drives drift-tripping traffic and
// expects /healthz to name the rule behind the stale flag (the
// interpretable half of the drift signal) and the drift warn log to
// carry the tripping request's ID.
func TestDriftNamesTopRuleOnHealthz(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	_, ts, _ := newTestServer(t, Config{
		DriftWindow: 64,
		DriftBound:  0.02,
		AccessLog:   logger,
	})

	spikes := make([]int, 0, 30)
	for i := 10; i < 300; i += 10 {
		spikes = append(spikes, i)
	}
	body, err := json.Marshal(batchRequest{Series: []seriesPayload{{
		Name: "hot", Values: spiky("hot", 300, spikes, 3).Values,
	}}})
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

	var health struct {
		Status     string            `json:"status"`
		StaleRules map[string]string `json:"stale_rules"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "degraded" {
		t.Fatalf("health status = %q, want degraded", health.Status)
	}
	rule, ok := health.StaleRules["spikes"]
	if !ok || !regexp.MustCompile(`^r\d+$`).MatchString(rule) {
		t.Fatalf("stale_rules = %v, want a bounded rule index for spikes", health.StaleRules)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "model drift detected") ||
		!strings.Contains(logs, "top_rule="+rule) ||
		!strings.Contains(logs, "request_id=") {
		t.Fatalf("drift warn log missing model/rule/request-id context:\n%s", logs)
	}
}

// TestShadowWorkerLogsRequestID enqueues a sample the candidate cannot
// score and checks the worker's warn line carries the request ID the
// sample arrived under — the fix for background work logging without
// request context.
func TestShadowWorkerLogsRequestID(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	tel := newServerMetrics()
	shadows := NewShadows(tel, 1, logger, nil)
	defer shadows.Close()

	sh := shadows.Start("spikes", 2, trainModel(t))
	shadows.enqueue(shadowJob{
		sh:        sh,
		values:    []float64{1, 2}, // shorter than ω: candidate scoring errors
		incRanges: [][2]int{{1, 5}},
		windows:   3,
		rid:       "rid-shadow-test",
	})
	shadows.drain()

	logs := logBuf.String()
	if !strings.Contains(logs, "shadow scoring error") ||
		!strings.Contains(logs, "request_id=rid-shadow-test") {
		t.Fatalf("shadow warn log missing request id:\n%s", logs)
	}
	if sh.incOnly.Load() != 1 {
		t.Fatalf("unscorable sample not counted as disagreement: incOnly=%d", sh.incOnly.Load())
	}
}
