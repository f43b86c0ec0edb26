package server

// Batch scoring: POST /models/{name}/detect accepts a multi-series
// payload and fans the series across the server-wide bounded worker
// pool. Each series is scored independently (normalize → label →
// window → rule), and every detection carries the fired rule predicates
// rendered for humans.

import (
	"context"
	"io"
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

type batchDetection struct {
	Window int         `json:"window"`
	Start  int         `json:"start"`
	End    int         `json:"end"`
	Rules  []firedRule `json:"rules"`
	// Type and Scales are set only for pyramid models: the anomaly-type
	// tag (point, contextual, collective) and the per-scale fired-rule
	// breakdown. Plain-model responses keep their pre-pyramid shape.
	Type   string        `json:"type,omitempty"`
	Scales []scaleDetail `json:"scales,omitempty"`
}

// scaleDetail is the wire form of one pyramid scale's contribution to a
// fused detection.
type scaleDetail struct {
	Factor int         `json:"factor"`
	Window int         `json:"window"`
	Start  int         `json:"start"`
	End    int         `json:"end"`
	Rules  []firedRule `json:"rules"`
}

func scaleDetails(scales []cdt.ScaleDetection) []scaleDetail {
	if len(scales) == 0 {
		return nil
	}
	out := make([]scaleDetail, len(scales))
	for i, sd := range scales {
		out[i] = scaleDetail{
			Factor: sd.Factor,
			Window: sd.Window,
			Start:  sd.Start,
			End:    sd.End,
			Rules:  firedRules(sd.Fired),
		}
	}
	return out
}

type seriesResult struct {
	Name       string           `json:"name"`
	Detections []batchDetection `json:"detections"`
	Error      string           `json:"error,omitempty"`
}

type batchResponse struct {
	Model   string         `json:"model"`
	Results []seriesResult `json:"results"`
}

func (s *Server) handleBatchDetect(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	model, ok := s.registry.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q", name)
		return
	}
	// Request and response ride the hand-rolled hot-path codec
	// (fastjson.go): payloads here carry thousands of numbers, and
	// encoding/json would cost more than the scoring itself.
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	req, err := parseBatchRequest(body)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	if len(req.Series) == 0 {
		writeError(w, http.StatusBadRequest, "series must be non-empty")
		return
	}
	results := s.scoreBatch(r.Context(), name, model, req.Series)
	bp := respBufPool.Get().(*[]byte)
	buf := appendBatchResponse((*bp)[:0], batchResponse{Model: name, Results: results})
	writeRawJSON(w, http.StatusOK, buf)
	*bp = buf[:0]
	respBufPool.Put(bp)
}

// scoreBatch fans the series across the worker pool, preserving input
// order. The pool is server-wide, so concurrent batch requests share the
// configured parallelism instead of multiplying it. Each scored series
// also feeds the drift tracker and — when a candidate is shadowing this
// model — the shadow queue; both are off-path (a map/atomic touch and a
// non-blocking enqueue), keeping shadow overhead inside the benchmark
// gate.
func (s *Server) scoreBatch(ctx context.Context, name string, model cdt.Artifact, series []seriesPayload) []seriesResult {
	shadow := s.shadows.Get(name)
	attr := s.attr.forModel(name, model)
	omega := model.Info().Omega
	rid := RequestID(ctx)
	link := trace.LinkFromContext(ctx)
	poolCtx, poolSpan := trace.StartSpan(ctx, "batch_pool")
	if poolSpan != nil {
		poolSpan.SetAttr("model", name)
		poolSpan.SetAttr("series", strconv.Itoa(len(series)))
		defer poolSpan.End()
		// Per-scale sweep latency histograms ride the trace plumbing: the
		// observer installed here fires once per pyramid scale sweep on
		// pre-resolved children, sampled or not.
	}
	if attr.hasScaleSweep() {
		poolCtx = cdt.WithScaleSweepObserver(poolCtx, attr.observeSweep)
	}
	results := make([]seriesResult, len(series))
	// Per-slot anomaly-type tallies, merged into one Vec.With per
	// distinct type after the fan-out (metriclabel: no child resolution
	// inside the scoring loop).
	typeCounts := make([]map[string]uint64, len(series))
	var wg sync.WaitGroup
	for i := range series {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := series[i]
			results[i].Name = sp.Name
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			case <-ctx.Done():
				results[i].Error = "request canceled before scoring"
				return
			}
			if ctx.Err() != nil {
				results[i].Error = "request canceled before scoring"
				return
			}
			sctx, sspan := trace.StartSpan(poolCtx, "series")
			if sspan != nil {
				sspan.SetAttr("series", sp.Name)
				sspan.SetAttr("points", strconv.Itoa(len(sp.Values)))
				defer sspan.End()
			}
			dets, err := model.DetectExplained(sctx, cdt.NewSeries(sp.Name, sp.Values))
			if err != nil {
				results[i].Error = err.Error()
				return
			}
			ruleCounts := attr.newCounts()
			results[i].Detections = make([]batchDetection, len(dets))
			for j, d := range dets {
				results[i].Detections[j] = batchDetection{
					Window: d.Window,
					Start:  d.Start,
					End:    d.End,
					Rules:  firedRules(d.Fired),
					Type:   string(d.Type),
					Scales: scaleDetails(d.Scales),
				}
				attr.tallyWindow(ruleCounts, d)
				if d.Type != "" {
					if typeCounts[i] == nil {
						typeCounts[i] = map[string]uint64{}
					}
					typeCounts[i][string(d.Type)]++
				}
			}
			attr.apply(ruleCounts)
			s.tel.batchSeries.Inc()
			s.tel.batchDetections.Add(uint64(len(dets)))
			windows := len(sp.Values) - omega
			if windows < 0 {
				windows = 0
			}
			s.drift.observe(ctx, name, model, attr, windows, len(dets), ruleCounts)
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
	merged := map[string]uint64{}
	for _, tc := range typeCounts {
		for typ, n := range tc {
			merged[typ] += n
		}
	}
	for typ, n := range merged {
		s.tel.anomalyTypes.With(name, typ).Add(n)
	}
	return results
}
