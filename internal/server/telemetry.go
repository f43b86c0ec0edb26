package server

// Serving-side observability: per-endpoint request counters and latency
// histograms, an in-flight gauge, request-ID propagation, structured
// access logs, the GET /metrics Prometheus endpoint, and the opt-in
// debug mux carrying net/http/pprof. /metrics is the one counter
// surface; the Go runtime's own expvars (memstats, cmdline) stay on the
// debug mux only.
//
// Instrumentation sits on the request hot path, so every per-request
// metric is pre-resolved at route-registration time (no vector lookups
// per request) and every write is a lock-free atomic — the serving
// benchmarks gate on the overhead staying under 3%.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"cdt/internal/telemetry"
)

// serverMetrics bundles one server's telemetry registry and the
// pre-resolved instruments its hot paths write to.
type serverMetrics struct {
	reg *telemetry.Registry

	requests  *telemetry.CounterVec   // cdtserve_http_requests_total{endpoint,code}
	latency   *telemetry.HistogramVec // cdtserve_http_request_seconds{endpoint}
	unmatched *endpointMetrics        // endpoint="other": requests no route matches
	inFlight  *telemetry.Gauge        // cdtserve_http_in_flight

	batchSeries      *telemetry.Counter    // cdtserve_batch_series_total
	batchDetections  *telemetry.Counter    // cdtserve_detections_total{source="batch"}
	streamDetections *telemetry.Counter    // cdtserve_detections_total{source="stream"}
	anomalyTypes     *telemetry.CounterVec // cdtserve_anomaly_types_total{model,type}
	pushLatency      *telemetry.Histogram  // cdtserve_stream_push_seconds
	sessionsEvicted  *telemetry.Counter    // cdtserve_stream_sessions_evicted_total
	reloads          *telemetry.Counter    // cdtserve_model_reloads_total

	// Per-model children (rule fires, scale sweeps, anomaly types, the
	// stale gauge) are resolved into each servedModel record at load
	// (served.go), never on the scoring path.
	ruleFired  *telemetry.CounterVec   // cdtserve_rule_fired_total{model,rule}
	scaleSweep *telemetry.HistogramVec // cdtserve_scale_sweep_seconds{model,scale}

	// Model-lifecycle instruments (model store, shadows, drift).
	shadowWindows   *telemetry.CounterVec   // cdtserve_shadow_windows_total{model,outcome}
	shadowFireRate  *telemetry.HistogramVec // cdtserve_shadow_fire_rate{model,role}
	shadowScaleRate *telemetry.HistogramVec // cdtserve_shadow_scale_fire_rate{model,scale}
	shadowDropped   *telemetry.Counter      // cdtserve_shadow_dropped_total
	staleModels     *telemetry.GaugeVec     // cdtserve_model_stale{model}
	retrains        *telemetry.CounterVec   // cdtserve_retrains_total{status}
	promotes        *telemetry.Counter      // cdtserve_model_promotes_total
	rollbacks       *telemetry.Counter      // cdtserve_model_rollbacks_total
}

// fireRateBuckets shape the shadow fire-rate histograms: fire rates live
// in [0, 1] and interesting mass sits near zero, so the default
// latency-shaped buckets would flatten everything into one bin.
var fireRateBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 1}

// sweepBuckets shape the per-scale sweep latency histograms: a single
// scale sweep over a batch series runs tens of microseconds to low
// milliseconds, well under the request-latency DefBuckets floor.
var sweepBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
}

func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	detections := reg.CounterVec("cdtserve_detections_total",
		"Anomaly detections returned, by source (batch or stream).", "source")
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("cdtserve_http_requests_total",
			"HTTP requests served, by endpoint and status-code class.", "endpoint", "code"),
		latency: reg.HistogramVec("cdtserve_http_request_seconds",
			"HTTP request latency in seconds, by endpoint.", nil, "endpoint"),
		inFlight: reg.Gauge("cdtserve_http_in_flight",
			"Requests currently being served."),
		batchSeries: reg.Counter("cdtserve_batch_series_total",
			"Series scored through POST /models/{name}/detect."),
		batchDetections:  detections.With("batch"),
		streamDetections: detections.With("stream"),
		anomalyTypes: reg.CounterVec("cdtserve_anomaly_types_total",
			"Pyramid detections by classified anomaly type "+
				"(point, contextual, collective).", "model", "type"),
		pushLatency: reg.Histogram("cdtserve_stream_push_seconds",
			"Stream-session Push scoring latency in seconds (excludes JSON codec time).", nil),
		sessionsEvicted: reg.Counter("cdtserve_stream_sessions_evicted_total",
			"Streaming sessions evicted after exceeding the idle TTL."),
		reloads: reg.Counter("cdtserve_model_reloads_total",
			"Successful model-registry reloads (SIGHUP or POST /models/reload)."),
		ruleFired: reg.CounterVec("cdtserve_rule_fired_total",
			"Rule-predicate firings observed while scoring, by model and stable "+
				"rule index (r<i>, or x<factor>.r<i> per pyramid scale; \"other\" "+
				"past the label cap).", "model", "rule"),
		scaleSweep: reg.HistogramVec("cdtserve_scale_sweep_seconds",
			"Per-scale pyramid sweep latency in seconds (transform + label + "+
				"engine sweep), by model and scale.", sweepBuckets, "model", "scale"),
		shadowWindows: reg.CounterVec("cdtserve_shadow_windows_total",
			"Shadow-compared detection outcomes, by model and outcome "+
				"(agree, incumbent_only, candidate_only).", "model", "outcome"),
		shadowFireRate: reg.HistogramVec("cdtserve_shadow_fire_rate",
			"Per-sample fire rate (fired windows / windows swept), by model and role "+
				"(incumbent or candidate).", fireRateBuckets, "model", "role"),
		shadowScaleRate: reg.HistogramVec("cdtserve_shadow_scale_fire_rate",
			"Per-sample candidate fire rate at one pyramid scale during shadow "+
				"evaluation (distinct fired windows / windows swept at that scale).",
			fireRateBuckets, "model", "scale"),
		shadowDropped: reg.Counter("cdtserve_shadow_dropped_total",
			"Batch samples dropped because the shadow-scoring queue was full."),
		staleModels: reg.GaugeVec("cdtserve_model_stale",
			"1 while the model's live fire rate has drifted past the configured bound.", "model"),
		retrains: reg.CounterVec("cdtserve_retrains_total",
			"Drift-triggered retrains, by status (ok, error, or skipped).", "status"),
		promotes: reg.Counter("cdtserve_model_promotes_total",
			"Store versions promoted to serving via POST /models/{name}/promote."),
		rollbacks: reg.Counter("cdtserve_model_rollbacks_total",
			"Store rollbacks applied via POST /models/{name}/rollback."),
	}
	m.unmatched = m.endpoint("other")
	return m
}

// endpointMetrics holds one endpoint's request instruments, resolved
// once (at route registration, or in New for "other") rather than per
// request.
type endpointMetrics struct {
	name    string
	latency *telemetry.Histogram
	codes   [len(codeClasses)]*telemetry.Counter
}

// endpoint resolves the request instruments of the named endpoint.
func (m *serverMetrics) endpoint(name string) *endpointMetrics {
	e := &endpointMetrics{name: name, latency: m.latency.With(name)}
	for i, class := range codeClasses {
		e.codes[i] = m.requests.With(name, class)
	}
	return e
}

// observe records one finished request.
func (e *endpointMetrics) observe(status int, elapsed time.Duration) {
	e.latency.Observe(elapsed.Seconds())
	e.codes[classIndex(status)].Inc()
}

// --- request IDs -------------------------------------------------------

// ridPrefix makes request IDs unique across process restarts; the
// atomic counter makes them unique (and cheap) within one.
var ridPrefix = func() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: request id prefix: %v", err))
	}
	return hex.EncodeToString(b[:])
}()

var ridCounter atomic.Uint64

func nextRequestID() string {
	return ridPrefix + "-" + strconv.FormatUint(ridCounter.Add(1), 16)
}

type ridKey struct{}

// RequestID returns the request ID the Handler middleware propagated
// through ctx ("" outside a request). Handlers and loggers use it to
// correlate their output with the access log and the X-Request-ID
// response header.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// --- per-request plumbing ----------------------------------------------

// statusRecorder captures the response status and size for metrics and
// access logs, and carries the matched route's endpoint instruments back
// out to the outer middleware.
type statusRecorder struct {
	http.ResponseWriter
	code  int // 0 until the first WriteHeader/Write
	bytes int64
	ep    *endpointMetrics
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards streaming flushes (http.TimeoutHandler and httptest
// both expect the wrapper to stay flushable).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// codeClasses partitions status codes for the per-endpoint request
// counter: enough cardinality to alert on (error ratios per endpoint)
// without a label per distinct code.
var codeClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

func classIndex(status int) int {
	switch {
	case status >= 500:
		return 3
	case status >= 400:
		return 2
	case status >= 300:
		return 1
	default:
		return 0
	}
}

// handle registers pattern on the mux under endpoint's request
// instruments; the Handler middleware records into them once the
// request has finished.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	ep := s.tel.endpoint(endpoint)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if rec, ok := w.(*statusRecorder); ok {
			rec.ep = ep
		}
		h(w, r)
	})
}

// --- endpoints ---------------------------------------------------------

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.tel.reg.WritePrometheus(w)
}

// DebugHandler returns the operator debug surface — /debug/pprof/*,
// /debug/vars (the Go runtime's memstats and cmdline), /debug/traces,
// and /metrics — as a handler separate from Handler(). cdtserve serves
// it on the opt-in -debug-addr listener, keeping profilers and
// allocation dumps off the public port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// accessLog writes one structured line per request. The logger is the
// operator's (cdtserve wires -log-format/-log-level through here); nil
// disables access logging entirely.
func (s *Server) accessLog(r *http.Request, rec *statusRecorder, id string, elapsed time.Duration) {
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("endpoint", rec.ep.name),
		slog.Int("status", rec.status()),
		slog.Int64("bytes", rec.bytes),
		slog.Duration("elapsed", elapsed),
	)
}
