// Command cdtserve serves trained CDT models over HTTP: batch scoring,
// live streaming-detection sessions, and a hot-reloadable model
// registry. Every detection in a response carries the fired rule
// predicates in human-readable form — the interpretable payload the
// paper argues anomaly detectors owe their operators.
//
// Usage:
//
//	cdtserve -models dir [-addr :8080] [-workers 8] [-session-ttl 15m] [-timeout 30s]
//	         [-log-format text|json] [-log-level info] [-debug-addr 127.0.0.1:6060]
//	         [-slow-request 250ms] [-trace-sample 0.01] [-trace-export spans.jsonl]
//	cdtserve -store dir  [-drift-window 512] [-drift-bound 0.05] [-retrain-data dir]
//
// With -models, the directory holds one <name>.json per model (written
// by `cdt train -save` or Model.Save); the basename becomes the model
// name. SIGHUP or POST /models/reload atomically swaps in the
// directory's current contents without dropping in-flight requests.
// SIGINT/SIGTERM drain in-flight requests before exiting.
//
// With -store, models come from a versioned model store (managed with
// `cdt store ...`): each model serves its promoted "current" version,
// and the lifecycle endpoints — shadow evaluation, atomic promote,
// rollback — come alive. -drift-bound > 0 turns on drift detection
// (live fire rate vs. the training-time anomaly rate, over a sliding
// window of -drift-window scored windows); a drifted model is flagged
// on /metrics and /healthz, and when -retrain-data names a directory of
// <name>.csv labeled series, the server retrains in the background and
// publishes the candidate to the store unpromoted.
//
// Logs are structured (log/slog): one "request" record per served
// request carrying the request ID, endpoint, status, and latency, plus
// lifecycle events (start, reload, shutdown). -log-format json emits
// machine-parseable lines for log shippers; -log-level debug|info|warn|
// error gates verbosity (access logs log at info).
//
// Endpoints:
//
//	GET    /healthz                    liveness + model/session counts
//	GET    /models                     registered models with rule counts
//	POST   /models/reload              atomic hot-reload from the model dir
//	POST   /models/{name}/detect       batch scoring: {"series":[{"name","values"}]}
//	POST   /models/{name}/shadow       shadow a store version: {"version":N}
//	GET    /models/{name}/shadow       shadow agreement summary
//	DELETE /models/{name}/shadow       stop shadowing
//	POST   /models/{name}/promote      promote a store version: {"version":N}
//	POST   /models/{name}/rollback     undo the last promote
//	POST   /streams                    open a session: {"model","min","max"}
//	POST   /streams/{id}/points        push readings: {"points":[...]}
//	POST   /streams/{id}/reset         clear a session's window state
//	DELETE /streams/{id}               close a session
//	GET    /metrics                    Prometheus text exposition
//	GET    /debug/traces               recent traced requests' spans, newest
//	                                   first (?trace=<id> filters to one)
//
// With -trace-sample > 0, that fraction of requests (plus any request
// arriving with a sampled W3C traceparent header) records a span tree —
// request, batch pool, per-series detect, per-scale sweeps, fusion —
// into a bounded in-memory ring served at /debug/traces. With
// -slow-request set, every other request at least that slow lands in
// the same ring as a root-only "request" span (method, path,
// request_id, endpoint, status, duration_ms); -slow-request alone still
// builds a tracer, which then also traces requests that arrive with a
// sampled traceparent. -trace-export additionally appends each finished
// span as a JSON line to a file.
//
// With -debug-addr set, a second listener (keep it private — bind
// loopback or a management network) additionally serves /debug/pprof/
// profiles and the Go runtime's /debug/vars alongside /metrics and
// /debug/traces.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cdt/internal/modelstore"
	"cdt/internal/server"
	"cdt/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cdtserve:", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger from the flag values. Handlers
// write to stderr, keeping stdout clean for potential tooling.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// publicHandler is what the public listener serves: the server's
// handler behind the per-request timeout.
func publicHandler(s *server.Server, timeout time.Duration) http.Handler {
	return http.TimeoutHandler(s.Handler(), timeout, `{"error":"request timed out"}`)
}

func run(args []string) error {
	fs := flag.NewFlagSet("cdtserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	models := fs.String("models", "", "directory of <name>.json model artifacts (exclusive with -store)")
	storeDir := fs.String("store", "", "versioned model-store directory (exclusive with -models)")
	driftWindow := fs.Int("drift-window", 512, "scored windows aggregated before drift is evaluated")
	driftBound := fs.Float64("drift-bound", 0, "absolute fire-rate drift from the training baseline that marks a model stale (0 = disabled)")
	retrainData := fs.String("retrain-data", "", "directory of <name>.csv labeled series for drift-triggered retraining (requires -store)")
	retrainIters := fs.Int("retrain-iters", 15, "surrogate-guided evaluations per drift retrain")
	workers := fs.Int("workers", 0, "batch-scoring worker pool size (0 = GOMAXPROCS)")
	sessionTTL := fs.Duration("session-ttl", 15*time.Minute, "evict streaming sessions idle longer than this")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request handler timeout")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	debugAddr := fs.String("debug-addr", "", "serve /debug/pprof, the runtime's /debug/vars, /metrics, and /debug/traces on this extra address (empty = disabled; keep it private)")
	slowRequest := fs.Duration("slow-request", 0, "keep requests at least this slow in /debug/traces even when unsampled (0 = disabled)")
	traceSample := fs.Float64("trace-sample", 0, "fraction of requests to trace into /debug/traces (0 = disabled; with a tracer, inbound sampled traceparent headers always trace)")
	traceExport := fs.String("trace-export", "", "append finished spans as JSON lines to this file (requires -trace-sample > 0 or -slow-request > 0)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tracing := *traceSample > 0 || *slowRequest > 0
	if *traceExport != "" && !tracing {
		return fmt.Errorf("-trace-export requires -trace-sample > 0 or -slow-request > 0")
	}
	if (*models == "") == (*storeDir == "") {
		return fmt.Errorf("exactly one of -models and -store is required")
	}
	if *retrainData != "" && *storeDir == "" {
		return fmt.Errorf("-retrain-data requires -store (candidates are published to the store)")
	}
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}

	cfg := server.Config{
		ModelDir:    *models,
		DriftWindow: *driftWindow,
		DriftBound:  *driftBound,
		SessionTTL:  *sessionTTL,
		Workers:     *workers,
		AccessLog:   logger,
	}
	if tracing {
		tcfg := trace.Config{SampleRate: *traceSample, SlowThreshold: *slowRequest}
		if *traceExport != "" {
			f, err := os.OpenFile(*traceExport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("-trace-export: %w", err)
			}
			defer f.Close()
			tcfg.Export = f
		}
		cfg.Tracer = trace.New(tcfg)
	}
	if *storeDir != "" {
		st, err := modelstore.Open(*storeDir)
		if err != nil {
			return err
		}
		cfg.Store = st
		if *retrainData != "" {
			cfg.Retrainer = &csvRetrainer{dir: *retrainData, iters: *retrainIters, seed: 1}
		}
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           publicHandler(s, *timeout),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *timeout + 10*time.Second,
		WriteTimeout:      *timeout + 10*time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGHUP hot-reloads the registry; SIGINT/SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			n, err := s.Registry().Reload()
			if err != nil {
				logger.Error("reload failed, previous models still serving",
					"trigger", "SIGHUP", "error", err)
				continue
			}
			logger.Info("models reloaded", "trigger", "SIGHUP", "models", n)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The debug listener carries the profiling endpoints the public mux
	// deliberately omits; its lifetime is best-effort — it never blocks
	// serving and dies with the process.
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: s.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err)
			}
		}()
		defer dbg.Close()
	}

	errc := make(chan error, 1)
	go func() {
		backend := *models
		if *storeDir != "" {
			backend = *storeDir + " (store)"
		}
		logger.Info("cdtserve listening",
			"addr", *addr, "models", s.Registry().Len(), "backend", backend)
		errc <- httpServer.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down, draining in-flight requests", "drain_budget", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpServer.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
