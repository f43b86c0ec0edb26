package server

// Batch scoring: POST /models/{name}/detect accepts a multi-series
// payload and fans the series across the server-wide bounded worker
// pool. Each series is scored independently (normalize → label →
// window → rule), and every detection carries the fired rule predicates
// rendered for humans.

import (
	"context"
	"net/http"
	"strconv"
	"sync"

	cdt "cdt"
	"cdt/internal/trace"
)

type batchRequest struct {
	Series []seriesPayload `json:"series"`
}

type seriesPayload struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// seriesResult is one series' outcome: its detections, or the error
// that kept it from being scored.
type seriesResult struct {
	name       string
	detections []cdt.WindowDetection
	err        string
}

func (s *Server) handleBatchDetect(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, ok := s.registry.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q", name)
		return
	}
	// Request and response ride the hand-rolled hot-path codec
	// (fastjson.go): payloads here carry thousands of numbers, and
	// encoding/json would cost more than the scoring itself.
	body, err := readBody(r)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	req, err := parseBatchRequest(*body)
	putBody(body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	if len(req.Series) == 0 {
		writeError(w, http.StatusBadRequest, "series must be non-empty")
		return
	}
	results := s.scoreBatch(r.Context(), m, req.Series)
	bp := respBufPool.Get().(*[]byte)
	buf := appendBatchResponse((*bp)[:0], name, results)
	writeRawJSON(w, http.StatusOK, buf)
	*bp = buf[:0]
	respBufPool.Put(bp)
}

// scoreBatch fans the series across the worker pool, preserving input
// order. The pool is server-wide, so concurrent batch requests share the
// configured parallelism instead of multiplying it. Each scored series
// also feeds m's drift tracker and — when a candidate is shadowing this
// model — the shadow queue; both are off-path (a locked ring update and
// a non-blocking enqueue), keeping shadow overhead inside the benchmark
// gate.
func (s *Server) scoreBatch(ctx context.Context, m *servedModel, series []seriesPayload) []seriesResult {
	shadow := s.shadows.Get(m.name)
	rid := RequestID(ctx)
	link := trace.LinkFromContext(ctx)
	poolCtx, poolSpan := trace.StartSpan(ctx, "batch_pool")
	if poolSpan != nil {
		poolSpan.SetAttr("model", m.name)
		poolSpan.SetAttr("series", strconv.Itoa(len(series)))
		defer poolSpan.End()
	}
	if len(m.scaleSweep) > 0 {
		// Per-scale sweep latency histograms ride the trace plumbing: the
		// observer installed here fires once per pyramid scale sweep on
		// pre-resolved children, sampled or not.
		poolCtx = cdt.WithScaleSweepObserver(poolCtx, m.observeSweep)
	}
	results := make([]seriesResult, len(series))
	var wg sync.WaitGroup
	for i := range series {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := series[i]
			res := &results[i]
			res.name = sp.Name
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			case <-ctx.Done():
				res.err = "request canceled before scoring"
				return
			}
			if ctx.Err() != nil {
				res.err = "request canceled before scoring"
				return
			}
			sctx, sspan := trace.StartSpan(poolCtx, "series")
			if sspan != nil {
				sspan.SetAttr("series", sp.Name)
				sspan.SetAttr("points", strconv.Itoa(len(sp.Values)))
				defer sspan.End()
			}
			dets, err := m.art.DetectExplained(sctx, cdt.NewSeries(sp.Name, sp.Values))
			if err != nil {
				res.err = err.Error()
				return
			}
			res.detections = dets
			ruleCounts := m.newCounts()
			for j := range dets {
				m.tallyWindow(ruleCounts, &dets[j])
				m.countType(dets[j].Type)
			}
			m.apply(ruleCounts)
			s.tel.batchSeries.Inc()
			s.tel.batchDetections.Add(uint64(len(dets)))
			windows := windowCount(len(sp.Values), m.info.Omega)
			s.drift.observe(ctx, m, windows, len(dets), ruleCounts)
			if shadow != nil {
				incRanges := make([][2]int, len(dets))
				for j, d := range dets {
					incRanges[j] = [2]int{d.Start, d.End}
				}
				s.shadows.enqueue(shadowJob{
					sh:        shadow,
					values:    sp.Values,
					incRanges: incRanges,
					windows:   windows,
					rid:       rid,
					link:      link,
				})
			}
		}(i)
	}
	wg.Wait()
	return results
}
