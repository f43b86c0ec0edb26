package server

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	cdt "cdt"
	"cdt/internal/telemetry"
	"cdt/internal/trace"
)

// Shadow evaluation: a candidate model version scores the same live
// traffic as the incumbent it hopes to replace, and the server keeps
// score — agreement and disagreement counters plus per-role fire-rate
// histograms — so an operator promotes on evidence, not hope.
//
// Two traffic paths feed a shadow:
//
//   - Batch detects enqueue the request's series (plus the incumbent's
//     detections) onto a bounded queue scored by background workers, so
//     shadow mode costs the serving path an enqueue, not a second
//     detection — the <5% overhead gate on
//     BenchmarkServerBatchDetectShadow holds because candidate scoring
//     is off the request path. A full queue drops the sample (counted)
//     rather than blocking a request.
//
//   - Stream pushes mirror each point into a candidate stream inside
//     the session lock (the incremental cursor is O(1) per point, cheap
//     enough to keep synchronous and ordered).
//
// Agreement is point-range-exact: a detection agrees when both sides
// report the same [start, end] point range. Candidate and incumbent
// must be the same artifact kind (lifecycle.go enforces it): two plain
// models compare window ranges, two pyramids compare fused point
// ranges — both well-defined, while cross-kind ranges are not (a fused
// pyramid run and a single window describe different things even when
// they overlap). For candidates sharing the incumbent's ω (the common
// case — retrained versions of the same model) agreement is exact; a
// candidate with a different ω or scale set reports shifted ranges and
// shows as disagreement, which is the truthful signal.
//
// Shadow tracks one candidate version scoring next to its incumbent.
// All counters are atomics: batch workers, stream sessions, and the
// summary endpoint touch them without locks.
type Shadow struct {
	Name    string // incumbent registry name
	Version int    // candidate store version

	candidate cdt.Artifact
	omega     int // candidate's window size (fire-rate denominators)

	windows   atomic.Uint64 // windows swept past the comparison
	agree     atomic.Uint64 // ranges both sides reported
	incOnly   atomic.Uint64 // ranges only the incumbent reported
	candOnly  atomic.Uint64 // ranges only the candidate reported
	incFired  atomic.Uint64 // incumbent detections observed
	candFired atomic.Uint64 // candidate detections observed
	dropped   atomic.Uint64 // batch samples dropped on a full queue

	// Pre-resolved telemetry children (per-model labels).
	cAgree, cIncOnly, cCandOnly *telemetry.Counter
	hIncRate, hCandRate         *telemetry.Histogram
	hScaleRate                  []*telemetry.Histogram // per factor, pyramid candidates only
}

// record folds one compared sample into the counters.
func (sh *Shadow) record(windows, agree, incOnly, candOnly int) {
	sh.windows.Add(uint64(windows))
	sh.agree.Add(uint64(agree))
	sh.incOnly.Add(uint64(incOnly))
	sh.candOnly.Add(uint64(candOnly))
	sh.incFired.Add(uint64(agree + incOnly))
	sh.candFired.Add(uint64(agree + candOnly))
	sh.cAgree.Add(uint64(agree))
	sh.cIncOnly.Add(uint64(incOnly))
	sh.cCandOnly.Add(uint64(candOnly))
}

// ShadowSummary is the GET /models/{name}/shadow payload.
type ShadowSummary struct {
	Model            string `json:"model"`
	CandidateVersion int    `json:"candidate_version"`
	Windows          uint64 `json:"windows"`
	Agree            uint64 `json:"agree"`
	IncumbentOnly    uint64 `json:"incumbent_only"`
	CandidateOnly    uint64 `json:"candidate_only"`
	IncumbentFired   uint64 `json:"incumbent_fired"`
	CandidateFired   uint64 `json:"candidate_fired"`
	Dropped          uint64 `json:"dropped"`
	// Agreement is agree / (agree + incumbent_only + candidate_only);
	// 1 when neither side has fired yet.
	Agreement float64 `json:"agreement"`
}

func (sh *Shadow) summary() ShadowSummary {
	s := ShadowSummary{
		Model:            sh.Name,
		CandidateVersion: sh.Version,
		Windows:          sh.windows.Load(),
		Agree:            sh.agree.Load(),
		IncumbentOnly:    sh.incOnly.Load(),
		CandidateOnly:    sh.candOnly.Load(),
		IncumbentFired:   sh.incFired.Load(),
		CandidateFired:   sh.candFired.Load(),
		Dropped:          sh.dropped.Load(),
		Agreement:        1,
	}
	if total := s.Agree + s.IncumbentOnly + s.CandidateOnly; total > 0 {
		s.Agreement = float64(s.Agree) / float64(total)
	}
	return s
}

// shadowJob is one batch sample awaiting candidate scoring. It carries
// the originating request's ID and span link as plain values — the
// request context is gone by the time a worker scores the sample, so
// identity rides the job, not a context.
type shadowJob struct {
	sh        *Shadow
	values    []float64
	incRanges [][2]int          // incumbent detection ranges, ascending
	windows   int               // windows the incumbent swept
	rid       string            // originating X-Request-ID, for worker log lines
	link      trace.SpanContext // originating request span, for shadow_score spans
}

// Shadows manages the active shadow per model name and the background
// worker pool that scores batch samples.
type Shadows struct {
	tel    *serverMetrics
	logger *slog.Logger  // nil-safe: workers log only when set
	tracer *trace.Tracer // nil-safe: shadow_score spans only when sampled

	mu sync.RWMutex
	m  map[string]*Shadow

	queue   chan shadowJob
	stop    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	pending atomic.Int64 // queued but not yet scored (tests drain on 0)
}

// NewShadows starts the shadow scorer with the given worker count.
// logger and tracer may be nil; workers then score silently and
// untraced.
func NewShadows(tel *serverMetrics, workers int, logger *slog.Logger, tracer *trace.Tracer) *Shadows {
	if workers < 1 {
		workers = 1
	}
	s := &Shadows{
		tel:    tel,
		logger: logger,
		tracer: tracer,
		m:      make(map[string]*Shadow),
		queue:  make(chan shadowJob, 256),
		stop:   make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops the workers; queued samples are abandoned.
func (s *Shadows) Close() {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// Start activates (or replaces) the shadow for name. Any artifact kind
// shadows: a pyramid candidate additionally gets per-scale fire-rate
// histograms, resolved here (one lifecycle request) rather than per
// scored sample.
func (s *Shadows) Start(name string, version int, candidate cdt.Artifact) *Shadow {
	info := candidate.Info()
	sh := &Shadow{
		Name:      name,
		Version:   version,
		candidate: candidate,
		omega:     info.Omega,
		cAgree:    s.tel.shadowWindows.With(name, "agree"),
		cIncOnly:  s.tel.shadowWindows.With(name, "incumbent_only"),
		cCandOnly: s.tel.shadowWindows.With(name, "candidate_only"),
		hIncRate:  s.tel.shadowFireRate.With(name, "incumbent"),
		hCandRate: s.tel.shadowFireRate.With(name, "candidate"),
	}
	if info.Kind == cdt.KindPyramid {
		sh.hScaleRate = make([]*telemetry.Histogram, len(info.Scales))
		for i, f := range info.Scales {
			sh.hScaleRate[i] = s.tel.shadowScaleRate.With(name, fmt.Sprintf("x%d", f))
		}
	}
	s.mu.Lock()
	s.m[name] = sh
	s.mu.Unlock()
	return sh
}

// Stop deactivates the shadow for name, reporting whether one existed.
// In-flight samples for the old shadow still count into its (now
// unreferenced) counters; the telemetry children persist on /metrics.
func (s *Shadows) Stop(name string) bool {
	s.mu.Lock()
	_, ok := s.m[name]
	delete(s.m, name)
	s.mu.Unlock()
	return ok
}

// Get returns the active shadow for name (nil if none).
func (s *Shadows) Get(name string) *Shadow {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[name]
}

// Len returns the number of active shadows.
func (s *Shadows) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// enqueue offers one batch sample to the scorer without ever blocking
// the serving path: a full queue drops the sample and counts the drop.
func (s *Shadows) enqueue(job shadowJob) {
	s.pending.Add(1)
	select {
	case s.queue <- job:
	default:
		s.pending.Add(-1)
		job.sh.dropped.Add(1)
		s.tel.shadowDropped.Inc()
	}
}

// drain blocks until every enqueued sample has been scored — a test
// hook, so assertions see deterministic counters despite async scoring.
func (s *Shadows) drain() {
	for s.pending.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
}

func (s *Shadows) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case job := <-s.queue:
			s.score(job)
			s.pending.Add(-1)
		}
	}
}

// score runs the candidate over one batch sample and folds the
// comparison into the shadow's counters. ScoreRanges is the shared
// kind-generic surface: a plain model reports one [w+1, w+ω] range per
// fired window (exactly what a plain incumbent's batch path enqueued),
// a pyramid reports fused point ranges (likewise what a pyramid
// incumbent enqueued), so same-kind comparison stays range-exact
// without a per-kind scoring branch — and the candidate skips the rule
// rendering and explanation assembly the comparison never reads, which
// is most of what keeps this path inside the overhead gate on hosts
// where the workers share cores with serving (REPORT.md).
func (s *Shadows) score(job shadowJob) {
	sh := job.sh
	// The shadow_score span links back to the originating request's span
	// via the job's carried SpanContext, so a sampled request's trace
	// shows its asynchronous shadow work under the same trace ID.
	ctx, span := s.tracer.StartLinked(context.Background(), job.link, "shadow_score")
	if span != nil {
		span.SetAttr("model", sh.Name)
		span.SetAttr("request_id", job.rid)
	}
	st, err := sh.candidate.ScoreRanges(ctx, cdt.NewSeries("shadow", job.values))
	if err != nil {
		// A series the incumbent scored but the candidate cannot (e.g.
		// shorter than the candidate's ω) is a hard disagreement on
		// every incumbent detection.
		sh.record(job.windows, 0, len(job.incRanges), 0)
		observeRates(sh, job.windows, len(job.incRanges), 0, 0)
		if span != nil {
			span.SetAttr("error", err.Error())
			span.End()
		}
		if s.logger != nil {
			s.logger.Warn("shadow scoring error",
				"model", sh.Name, "version", sh.Version,
				"request_id", job.rid, "err", err)
		}
		return
	}
	agree, incOnly, candOnly := compareRanges(job.incRanges, st.Ranges)
	sh.record(job.windows, agree, incOnly, candOnly)
	observeRates(sh, job.windows, len(job.incRanges), windowCount(len(job.values), sh.omega), len(st.Ranges))
	sh.observeScaleRates(st)
	span.End()
	if s.logger != nil {
		s.logger.Debug("shadow sample scored",
			"model", sh.Name, "version", sh.Version,
			"request_id", job.rid,
			"agree", agree, "incumbent_only", incOnly, "candidate_only", candOnly)
	}
}

// observeScaleRates feeds the per-scale candidate fire-rate histograms
// (pyramid candidates only): fired windows over windows swept at each
// scale, pre-fusion — the diagnostic an operator reads to see which
// resolution a candidate disagrees at, independent of whether the
// fusion policy let those firings through.
func (sh *Shadow) observeScaleRates(st cdt.RangeStats) {
	for i := range sh.hScaleRate {
		if i < len(st.ScaleFired) && st.ScaleWindows[i] > 0 {
			sh.hScaleRate[i].Observe(float64(st.ScaleFired[i]) / float64(st.ScaleWindows[i]))
		}
	}
}

// observeRates feeds the per-role fire-rate histograms (fired windows
// per window swept, one observation per batch sample).
func observeRates(sh *Shadow, incWindows, incFired, candWindows, candFired int) {
	if incWindows > 0 {
		sh.hIncRate.Observe(float64(incFired) / float64(incWindows))
	}
	if candWindows > 0 {
		sh.hCandRate.Observe(float64(candFired) / float64(candWindows))
	}
}

// compareRanges merges two ascending range lists and counts exact
// matches and one-sided reports.
func compareRanges(inc, cand [][2]int) (agree, incOnly, candOnly int) {
	i, j := 0, 0
	for i < len(inc) && j < len(cand) {
		switch {
		case inc[i] == cand[j]:
			agree++
			i++
			j++
		case less(inc[i], cand[j]):
			incOnly++
			i++
		default:
			candOnly++
			j++
		}
	}
	incOnly += len(inc) - i
	candOnly += len(cand) - j
	return agree, incOnly, candOnly
}

func less(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}
