// Package server implements cdtserve, the HTTP serving subsystem for
// trained CDT models: a hot-reloadable model registry, streaming
// detection sessions, and batch scoring over a bounded worker pool.
//
// Interpretability is the paper's point (EDBT 2021 §3.4), so every
// detection the server returns carries the fired rule predicates in
// human-readable form, not just window indices.
//
// The package is stdlib-only (net/http, sync, context, log/slog) plus
// the repo's internal/telemetry and internal/trace layers. Each
// observability concern has one surface: counts and latencies on
// /metrics (telemetry.go), individual requests — head-sampled or slow —
// in the tracer's span ring on /debug/traces (traces.go), and one
// structured access-log line per request keyed by request ID.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	cdt "cdt"
	"cdt/internal/modelstore"
	"cdt/internal/trace"
)

// Config tunes a Server.
type Config struct {
	// ModelDir is the directory of <name>.json model artifacts. Exactly
	// one of ModelDir and Store must be set.
	ModelDir string
	// Store serves models from a versioned model store instead of a flat
	// directory: the registry resolves "current" promotion pointers, and
	// the promote/rollback/shadow endpoints come alive.
	Store *modelstore.Store
	// DriftWindow is the sliding window (in scored windows) the drift
	// detector aggregates before comparing live fire rate against the
	// model's training-time anomaly rate (default 512).
	DriftWindow int
	// DriftBound is the absolute fire-rate deviation that marks a model
	// stale; <= 0 disables drift detection (the default).
	DriftBound float64
	// Retrainer, when set alongside Store, re-trains drifted models in
	// the background and publishes the result as an unpromoted candidate.
	Retrainer Retrainer
	// SessionTTL evicts streaming sessions idle longer than this
	// (default 15m; <= 0 keeps the default, it does not disable).
	SessionTTL time.Duration
	// Workers bounds concurrent batch-scoring goroutines server-wide
	// (default GOMAXPROCS).
	Workers int
	// MaxBodyBytes caps request bodies (default 32 MiB).
	MaxBodyBytes int64
	// AccessLog, when non-nil, receives one structured line per request
	// (endpoint, status, latency, request ID). Nil disables access
	// logging; metrics are collected either way. Background work (shadow
	// scoring, drift retraining) logs through the same logger, carrying
	// the originating request ID.
	AccessLog *slog.Logger
	// Tracer, when non-nil, enables request-scoped tracing: the
	// middleware makes the root sampling decision (honoring inbound W3C
	// traceparent headers), spans thread through the scoring hot paths,
	// and finished spans land in the tracer's ring on GET /debug/traces.
	// Every finished request is handed back to the tracer, which also
	// keeps unsampled ones slower than its trace.Config.SlowThreshold.
	// Nil disables tracing entirely (the endpoint serves an empty list).
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

// Server wires the registry, the session manager, and the batch worker
// pool behind an http.Handler. Create with New, serve Handler(), and
// Close when done.
type Server struct {
	cfg      Config
	registry *Registry
	sessions *Sessions
	shadows  *Shadows
	drift    *drift
	sem      chan struct{} // batch worker-pool slots
	mux      *http.ServeMux
	tel      *serverMetrics
	tracer   *trace.Tracer // nil disables tracing
	logger   *slog.Logger  // access logger; nil disables access logs
}

// New loads the model backend (directory or store) and assembles the
// serving stack.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Store != nil && cfg.ModelDir != "" {
		return nil, fmt.Errorf("server: Config.ModelDir and Config.Store are mutually exclusive")
	}
	tel := newServerMetrics()
	reg, err := newRegistry(cfg.ModelDir, cfg.Store, tel)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		registry: reg,
		sessions: NewSessions(cfg.SessionTTL, tel),
		shadows:  NewShadows(tel, cfg.Workers, cfg.AccessLog, cfg.Tracer),
		drift:    newDrift(cfg.DriftWindow, cfg.DriftBound, cfg.Store, cfg.Retrainer, tel, cfg.AccessLog),
		sem:      make(chan struct{}, cfg.Workers),
		mux:      http.NewServeMux(),
		tel:      tel,
		tracer:   cfg.Tracer,
		logger:   cfg.AccessLog,
	}
	tel.reg.GaugeFunc("cdtserve_models_loaded",
		"Models currently registered.", func() int64 { return int64(s.registry.Len()) })
	tel.reg.GaugeFunc("cdtserve_stream_sessions_active",
		"Live streaming sessions.", func() int64 { return int64(s.sessions.Len()) })
	tel.reg.GaugeFunc("cdtserve_shadows_active",
		"Candidate versions currently shadow-scoring live traffic.",
		func() int64 { return int64(s.shadows.Len()) })
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	s.handle("GET /models", "models_list", s.handleListModels)
	s.handle("POST /models/reload", "models_reload", s.handleReload)
	s.handle("POST /models/{name}/detect", "batch_detect", s.handleBatchDetect)
	s.handle("GET /models/{name}/shadow", "shadow_summary", s.handleShadowSummary)
	s.handle("POST /models/{name}/shadow", "shadow_start", s.handleShadowStart)
	s.handle("DELETE /models/{name}/shadow", "shadow_stop", s.handleShadowStop)
	s.handle("POST /models/{name}/promote", "model_promote", s.handlePromote)
	s.handle("POST /models/{name}/rollback", "model_rollback", s.handleRollback)
	s.handle("POST /streams", "stream_create", s.handleCreateStream)
	s.handle("POST /streams/{id}/points", "stream_push", s.handlePushPoints)
	s.handle("POST /streams/{id}/reset", "stream_reset", s.handleResetStream)
	s.handle("DELETE /streams/{id}", "stream_delete", s.handleDeleteStream)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	s.handle("GET /debug/traces", "debug_traces", s.handleTraces)
}

// Handler returns the HTTP surface. The middleware applies, to every
// route: body limiting, request-ID assignment (honoring an inbound
// X-Request-ID) with context propagation and the X-Request-ID response
// header, the root trace span (honoring an inbound W3C traceparent,
// emitting the outbound header when sampled), the in-flight gauge, the
// per-endpoint request counter and latency histogram (unmatched paths
// count as endpoint "other"), the tracer's retention decision, and —
// when Config.AccessLog is set — one structured access-log line.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = nextRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w, ep: s.tel.unmatched}
		ctx := context.WithValue(r.Context(), ridKey{}, id)
		var span *trace.Span
		if s.tracer != nil {
			// nil span (unsampled) leaves ctx untouched; every downstream
			// instrumentation point no-ops on the missing span. The
			// canonical header key spares Get a per-request allocation.
			ctx, span = s.tracer.StartRequest(ctx, "request", r.Header.Get("Traceparent"))
			if span != nil {
				w.Header().Set("traceparent", span.Traceparent())
			}
		}
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(rec, r.Body, s.cfg.MaxBodyBytes)
		s.tel.inFlight.Add(1)
		start := time.Now()
		s.mux.ServeHTTP(rec, r)
		s.tel.inFlight.Add(-1)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// Under http.TimeoutHandler (cdtserve's wrapper) an expired
			// deadline means the client got the timeout reply, not what
			// the route wrote into the discarded buffer. A route that
			// finishes as its deadline passes can still win the wrapper's
			// race and reach the client; it is counted as timed out.
			rec.code = http.StatusServiceUnavailable
		}
		elapsed := time.Since(start)
		rec.ep.observe(rec.status(), elapsed)
		if span = s.tracer.Retain(span, "request", start); span != nil {
			span.SetAttr("method", r.Method)
			span.SetAttr("path", r.URL.Path)
			span.SetAttr("request_id", id)
			span.SetAttr("endpoint", rec.ep.name)
			span.SetAttr("status", strconv.Itoa(rec.status()))
			span.End()
		}
		if s.logger != nil {
			s.accessLog(r, rec, id, elapsed)
		}
	})
}

// Registry exposes the model registry (the SIGHUP handler reloads it).
func (s *Server) Registry() *Registry { return s.registry }

// Close releases background resources (the session janitor and the
// shadow-scoring workers).
func (s *Server) Close() {
	s.sessions.Close()
	s.shadows.Close()
}

// --- JSON plumbing -----------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes a request body, mapping size/syntax problems to 4xx.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "decoding body: %v", err)
		return false
	}
	// Trailing garbage after the document is a malformed request too.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		writeError(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// --- operational handlers ----------------------------------------------

// handleHealthz is the readiness view: it verifies the model backend is
// loadable right now (store manifest readable and every current version
// resolvable, or the model dir still holding artifacts) and surfaces
// drift — a stale model degrades the report without failing readiness,
// since the incumbent is still serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := s.registry.CheckSource(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "unready",
			"error":  err.Error(),
		})
		return
	}
	body := map[string]any{
		"status":          "ok",
		"models":          s.registry.Len(),
		"active_sessions": s.sessions.Len(),
	}
	if stale, rules := s.registry.stale(); len(stale) > 0 {
		body["status"] = "degraded"
		body["stale_models"] = stale
		if len(rules) > 0 {
			// Name the rule driving each drift — the actionable half of
			// the stale signal for a rule-based detector.
			body["stale_rules"] = rules
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.registry.List()})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	n, err := s.registry.Reload()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reload failed (previous models still serving): %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": n})
}

// --- streaming handlers ------------------------------------------------

type createStreamRequest struct {
	Model string  `json:"model"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

type createStreamResponse struct {
	ID    string `json:"id"`
	Model string `json:"model"`
	Omega int    `json:"omega"`
}

func (s *Server) handleCreateStream(w http.ResponseWriter, r *http.Request) {
	var req createStreamRequest
	if !readJSON(w, r, &req) {
		return
	}
	m, ok := s.registry.Get(req.Model)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q", req.Model)
		return
	}
	sess, err := s.sessions.Create(req.Model, m.art,
		cdt.Scale{Min: req.Min, Max: req.Max}, s.shadows.Get(req.Model), s.drift, m)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, createStreamResponse{ID: sess.ID, Model: sess.Model, Omega: sess.Omega})
}

type pushPointsRequest struct {
	Points []float64 `json:"points"`
}

func (s *Server) handlePushPoints(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("id"))
		return
	}
	// Like batch detect, point pushes use the hand-rolled hot-path codec
	// (fastjson.go): live feeds push numeric payloads at high rates.
	body, err := readBody(r)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	req, err := parsePushPoints(*body)
	putBody(body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "points must be non-empty")
		return
	}
	dets, consumed, ready := sess.Push(r.Context(), req.Points)
	s.tel.streamDetections.Add(uint64(len(dets)))
	bp := respBufPool.Get().(*[]byte)
	buf := appendPushPointsResponse((*bp)[:0], dets, consumed, ready)
	writeRawJSON(w, http.StatusOK, buf)
	*bp = buf[:0]
	respBufPool.Put(bp)
}

func (s *Server) handleResetStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("id"))
		return
	}
	sess.Reset()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDeleteStream(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.Delete(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
