package cdt

// Resolution-pyramid models: the same feed trained at several temporal
// resolutions at once, fused through the shared fusion policies
// (fusion.go).
// The paper's rules are single-scale — one (ω, δ, ε) labeling per model,
// so a rule can only describe anomalies at the resolution it was trained
// at. Following CRAFTIIF's observation that analyzing several
// resolutions at once is what separates point, contextual, and
// collective anomalies, a PyramidModel trains one CDT per downsampled
// scale (through the Corpus cache — per-resolution corpora are just more
// cache keys), fuses fired rules across scales at detection time, and
// tags every detection with the anomaly type its rule-shape × scale
// signature implies:
//
//	point       only the original resolution fired, with a peak-shaped
//	            rule (PP/PN in a positive composition) — a single
//	            extremal reading
//	contextual  a single scale fired without a base-scale peak — a shape
//	            abnormal for its local context (a slow-scale-only ECN,
//	            or a fast-scale non-peak run)
//	collective  two or more scales fired over overlapping points —
//	            agreement across resolutions marks a sustained episode
//
// Scale geometry: the scale at factor f sees bucket b as the aggregate
// of raw points [b·f, b·f+f−1], so its window w (covering downsampled
// points w+1..w+ω) projects onto raw points [(w+1)·f, (w+ω+1)·f − 1].
// Fusion happens at the raw-point level: a point is flagged when the
// per-scale coverage verdicts satisfy the configured Fusion policy, and
// consecutive flagged points merge into one fused detection carrying the
// per-scale breakdown. Coverage is kept as runs of points, so the
// policy decides once per stretch of points that one set of scales
// covers (fuseRuns), not once per point. With a single scale and the
// FuseAny default the fused flags equal Model.PointFlags exactly
// (pinned by TestPyramidSingleScaleGolden).

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"cdt/internal/engine"
	"cdt/internal/evalmetrics"
	"cdt/internal/telemetry"
	"cdt/internal/timeseries"
	"cdt/internal/trace"
)

// AnomalyType tags a pyramid detection with the anomaly class its
// rule-shape × scale signature implies.
type AnomalyType string

const (
	// TypePoint is a single extremal reading: only the original
	// resolution fired, with a peak-shaped rule.
	TypePoint AnomalyType = "point"
	// TypeContextual is a shape abnormal for its context: a single scale
	// fired, without a base-scale peak.
	TypeContextual AnomalyType = "contextual"
	// TypeCollective is a sustained episode: two or more scales fired
	// over overlapping points.
	TypeCollective AnomalyType = "collective"
)

// ScaleDetection is one scale's fired window inside a pyramid detection.
type ScaleDetection struct {
	// Factor is the scale's downsample factor (1 = original resolution).
	Factor int
	// Window is the scale-local sliding-window index (as in the scale
	// model's DetectWindows over the downsampled series).
	Window int
	// Start and End delimit the covered original-resolution points
	// (inclusive, 0-based).
	Start, End int
	// Fired lists the scale model's matching rule predicates.
	Fired []FiredPredicate
}

// PyramidConfig configures a resolution pyramid.
type PyramidConfig struct {
	// Factors are the downsample factors, strictly increasing, starting
	// at 1 (the original resolution is always a member — it anchors
	// anomaly typing, streaming readiness, and drift baselines). 1–8
	// scales.
	Factors []int
	// Aggregator names the downsampling bucket aggregation: "mean"
	// (default) or "max". "sum" is excluded because it leaves the [0,1]
	// normalization range.
	Aggregator string
	// Fusion combines per-scale point coverage into the fused verdict.
	// The zero value is FuseAny: any scale firing flags the point.
	Fusion Fusion
	// Dim is the column of a multivariate feed the pyramid was trained
	// over. The choice is made once, at the feed boundary
	// (MultiSeries.Dimension): training and every scoring surface take
	// that column's readings as their univariate series. Zero is also
	// the univariate default, so such artifacts stay byte-stable.
	Dim int
}

// maxPyramidScales bounds the pyramid height; more scales than this is
// a configuration error, not a richer model.
const maxPyramidScales = 8

// Validate checks the configuration.
func (cfg PyramidConfig) Validate() error {
	if len(cfg.Factors) == 0 {
		return fmt.Errorf("cdt: pyramid needs at least one factor")
	}
	if len(cfg.Factors) > maxPyramidScales {
		return fmt.Errorf("cdt: %d pyramid scales, want at most %d", len(cfg.Factors), maxPyramidScales)
	}
	if cfg.Factors[0] != 1 {
		return fmt.Errorf("cdt: pyramid factors must start at 1 (got %d): the original resolution anchors typing and streaming", cfg.Factors[0])
	}
	for i := 1; i < len(cfg.Factors); i++ {
		if cfg.Factors[i] <= cfg.Factors[i-1] {
			return fmt.Errorf("cdt: pyramid factors must be strictly increasing (%d after %d)", cfg.Factors[i], cfg.Factors[i-1])
		}
	}
	if _, err := aggregatorOf(cfg.Aggregator); err != nil {
		return err
	}
	if cfg.Dim < 0 {
		return fmt.Errorf("cdt: pyramid dim %d, want >= 0", cfg.Dim)
	}
	// Like the omega/delta bounds at model load: a corrupted or
	// adversarial document must not smuggle in a dimension index that
	// drives huge feed allocations downstream.
	const maxDim = 1 << 20
	if cfg.Dim > maxDim {
		return fmt.Errorf("cdt: implausible pyramid dim %d (max %d)", cfg.Dim, maxDim)
	}
	return cfg.Fusion.Validate(fmt.Sprintf("pyramid scales %v", cfg.Factors), len(cfg.Factors))
}

// PyramidModel is one trained CDT per resolution scale, each scoring the
// series resampled by its factor, fused under Config.Fusion.
type PyramidModel struct {
	// Opts is the shared per-scale training configuration.
	Opts Options
	// Config is the pyramid shape. Config.Fusion is the pyramid's only
	// copy of its fusion policy: scoring, Info and Save all read it.
	Config PyramidConfig

	models []*Model
}

// FitPyramid trains one CDT per resolution scale over the training
// series. Each scale trains on the series downsampled by its factor
// (anomaly annotations survive: a bucket is anomalous when any covered
// point was), all sharing ω, δ, ε. For a pyramid over one column of
// multivariate feeds (cfg.Dim), train holds that column of each feed
// (MultiSeries.Dimension).
func FitPyramid(train []*Series, opts Options, cfg PyramidConfig) (*PyramidModel, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("cdt: no training series")
	}
	c, err := NewCorpus(train)
	if err != nil {
		return nil, err
	}
	return c.FitPyramid(opts, cfg)
}

// FitPyramid trains a resolution pyramid over the corpus: each scale
// pulls its derived corpus from the resolution cache (AtResolution), so
// repeated pyramid fits — hyper-parameter sweeps, retraining — share
// every preprocessing stage per scale.
func (c *Corpus) FitPyramid(opts Options, cfg PyramidConfig) (*PyramidModel, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pm := &PyramidModel{Opts: opts, Config: cfg}
	for _, f := range cfg.Factors {
		rc, err := c.AtResolution(f, cfg.Aggregator)
		if err != nil {
			return nil, err
		}
		model, err := rc.Fit(opts)
		if err != nil {
			return nil, fmt.Errorf("cdt: pyramid scale x%d: %w", f, err)
		}
		pm.models = append(pm.models, model)
	}
	return pm, nil
}

// NumScales returns the number of resolution scales.
func (pm *PyramidModel) NumScales() int { return len(pm.models) }

// Scales returns the downsample factors, fastest first.
func (pm *PyramidModel) Scales() []int {
	out := make([]int, len(pm.Config.Factors))
	copy(out, pm.Config.Factors)
	return out
}

// ScaleModel returns scale i's trained CDT (i indexes Scales()).
func (pm *PyramidModel) ScaleModel(i int) *Model { return pm.models[i] }

// NumRules sums the rule counts of all scale models.
func (pm *PyramidModel) NumRules() int { return numRules(pm.models) }

// TrainingAnomalyRate returns the original-resolution model's training
// anomaly rate — the baseline drift detection compares live fire rates
// against. The base scale sees every window the feed produces, so its
// rate is the comparable one.
func (pm *PyramidModel) TrainingAnomalyRate() float64 {
	return pm.models[0].TrainingAnomalyRate()
}

// RuleText renders each scale's rules under a header.
func (pm *PyramidModel) RuleText() string {
	return memberText(pm.models, pm.scaleHeader, (*Model).RuleText)
}

// Explain renders each scale's rules with shape sketches and
// plain-language descriptions, under per-scale headers.
func (pm *PyramidModel) Explain() string {
	return memberText(pm.models, pm.scaleHeader, (*Model).Explain)
}

// scaleHeader names scale i in rule listings.
func (pm *PyramidModel) scaleHeader(i int) string {
	f := pm.Config.Factors[i]
	return fmt.Sprintf("scale x%d (1/%d resolution, %s)", f, f, canonicalAggregator(pm.Config.Aggregator))
}

// anyPeak reports whether any of scale i's fired predicates is
// peak-shaped.
func (pm *PyramidModel) anyPeak(scale int, fired []FiredPredicate) bool {
	peaks := pm.models[scale].predPeaks
	for _, fp := range fired {
		if fp.Index >= 1 && fp.Index <= len(peaks) && peaks[fp.Index-1] {
			return true
		}
	}
	return false
}

// classifyScales derives the anomaly type of one fused detection from
// its overlapping per-scale detections (ordered fastest scale first).
func (pm *PyramidModel) classifyScales(scales []ScaleDetection) AnomalyType {
	if len(scales) == 0 {
		return TypeContextual
	}
	distinct := 1
	for i := 1; i < len(scales); i++ {
		if scales[i].Factor != scales[i-1].Factor {
			distinct++
		}
	}
	if distinct >= 2 {
		return TypeCollective
	}
	if scales[0].Factor == 1 {
		for _, sd := range scales {
			if pm.anyPeak(0, sd.Fired) {
				return TypePoint
			}
		}
	}
	return TypeContextual
}

// pyramidPass is one scoring pass over a series: per scale, the
// engine's marks and the sorted runs of original-resolution points its
// fired windows cover, then the runs the fusion policy flags. Passes
// are pooled (pyramidPasses); release returns one, and its marks to
// their engines, once its caller has read it.
type pyramidPass struct {
	n     int
	marks [maxPyramidScales]*engine.Marks
	runs  [maxPyramidScales][]rawRange
	fused []rawRange
	// buckets holds the aggregated readings of the scale being swept.
	buckets []float64
	// dets holds every scale's fired windows while explain renders
	// breakdowns from them.
	dets []ScaleDetection
}

var pyramidPasses = sync.Pool{New: func() any { return new(pyramidPass) }}

// release hands the pass's marks back to the engines of pm, whose pass
// it is, and pools its buffers, unless a huge series grew them.
func (p *pyramidPass) release(pm *PyramidModel) {
	for i, m := range pm.models {
		m.eng.Release(p.marks[i])
	}
	p.marks = [maxPyramidScales]*engine.Marks{}
	// The detections' Fired slices belong to the caller's results.
	clear(p.dets)
	p.dets = p.dets[:0]
	if p.n <= maxPooledLabels {
		pyramidPasses.Put(p)
	}
}

// sweep is the one per-scale pass every pyramid scoring surface runs
// over a series. It keeps ensureNormalized's rule (a series already in
// [0,1] is used as it is, any other is min-max normalized) from one
// MinMax scan, without copying the series: the ×1 scale labels the raw
// readings through their extremes, and each slower scale aggregates
// its buckets of the normalized readings into a pooled buffer. That is
// the order training applies through AtResolution, and the aggregates
// stay in [0,1], so no scale scans for extremes again. Each scale's
// fired windows then become coverage runs. Each scale's sweep gets a
// "scale_sweep" span on a sampled ctx and is timed for the context's
// ScaleSweepObserver (the serving layer's per-scale latency
// histograms); timing goes through telemetry.Stopwatch, the sanctioned
// wall-clock boundary for this detfloat-guarded package.
func (pm *PyramidModel) sweep(ctx context.Context, s *Series) (*pyramidPass, error) {
	min, max, err := s.MinMax()
	if err != nil {
		return nil, err
	}
	if _, err := aggregatorOf(pm.Config.Aggregator); err != nil {
		// Where ResampleTransform.Apply reports it: at the first scale.
		return nil, fmt.Errorf("cdt: pyramid scale x%d: %w", pm.Config.Factors[0], err)
	}
	useMax := canonicalAggregator(pm.Config.Aggregator) == "max"
	obs := scaleSweepObserver(ctx)
	p := pyramidPasses.Get().(*pyramidPass)
	p.n = s.Len()
	for i, m := range pm.models {
		f := pm.Config.Factors[i]
		var sw telemetry.Stopwatch
		if obs != nil {
			sw = telemetry.NewStopwatch()
		}
		sctx, span := trace.StartSpan(ctx, "scale_sweep")
		if span != nil {
			span.SetAttr("factor", strconv.Itoa(f))
		}
		var marks *engine.Marks
		if f == 1 {
			marks, err = m.sweepValues(sctx, s.Name, s.Values, min, max)
		} else {
			p.buckets = downsampleNormalized(p.buckets[:0], s.Values, f, useMax, timeseries.Scale{Min: min, Max: max})
			// Aggregates of normalized readings lie in [0,1]: they are
			// labeled as they are.
			marks, err = m.sweepValues(sctx, s.Name, p.buckets, 0, 1)
		}
		if err != nil {
			span.End()
			p.release(pm)
			return nil, fmt.Errorf("cdt: pyramid scale x%d: %w", f, err)
		}
		p.marks[i] = marks
		p.runs[i] = appendCoverage(p.runs[i][:0], marks, f, pm.Opts.Omega, p.n)
		span.End()
		if obs != nil {
			obs(i, f, sw.Elapsed().Seconds())
		}
	}
	return p, nil
}

// downsampleNormalized appends to dst the factor-f buckets that
// ResampleTransform.Apply makes of ensureNormalized's copy of values,
// without the copy. sc holds the readings' extremes: readings inside
// [0,1] are aggregated as they are, any others as normalized by
// sc.Apply. A mean bucket sums the normalized readings in order, as
// timeseries.Mean does over the copy. A max bucket normalizes its raw
// maximum once: normalization is monotone, so that is the maximum of
// the normalized readings (but for the sign of a zero, when readings
// above the minimum underflow to zero; labels compare differences,
// which that sign does not change).
func downsampleNormalized(dst, values []float64, f int, useMax bool, sc timeseries.Scale) []float64 {
	scaled := !(sc.Min >= 0 && sc.Max <= 1)
	for lo := 0; lo < len(values); lo += f {
		bucket := values[lo:min(lo+f, len(values))]
		var v float64
		switch {
		case useMax && scaled:
			v = sc.Apply(timeseries.Max(bucket))
		case useMax:
			v = timeseries.Max(bucket)
		case scaled:
			for _, x := range bucket {
				v += sc.Apply(x)
			}
			v /= float64(len(bucket))
		default:
			v = timeseries.Mean(bucket)
		}
		dst = append(dst, v)
	}
	return dst
}

// firedWindows yields a scale's fired windows in order; *engine.Marks
// is one.
type firedWindows interface {
	// NextFired returns the first fired window at or after w, or -1.
	NextFired(w int) int
}

// project returns the original-resolution points [start, end] that
// window w of the scale at factor f covers in a series of n points.
func project(w, f, omega, n int) (start, end int) {
	return (w + 1) * f, min((w+omega+1)*f-1, n-1)
}

// appendCoverage appends to dst the runs of original-resolution points
// that a scale's fired windows cover, in order. Windows come in order
// and the ends of their projections never decrease, so a window that
// overlaps or touches the last run extends it.
func appendCoverage(dst []rawRange, fired firedWindows, f, omega, n int) []rawRange {
	from := len(dst)
	for w := fired.NextFired(0); w >= 0; w = fired.NextFired(w + 1) {
		start, end := project(w, f, omega, n)
		if k := len(dst) - 1; k >= from && start <= dst[k].end+1 {
			dst[k].end = end
			continue
		}
		dst = append(dst, rawRange{start: start, end: end})
	}
	return dst
}

// fuse fills p.fused with the runs Config.Fusion flags, under a
// "fusion_decide" span. The policy is validated first, so one assigned
// after fitting fuses or errors, never fuses as a policy LoadPyramid
// would refuse; the error's context is formatted only on failure.
func (pm *PyramidModel) fuse(ctx context.Context, p *pyramidPass) error {
	fu := pm.Config.Fusion
	scales := len(pm.models)
	if fu.Validate("", scales) != nil {
		return fu.Validate(fmt.Sprintf("pyramid scales %v", pm.Config.Factors), scales)
	}
	_, span := trace.StartSpan(ctx, "fusion_decide")
	if span != nil {
		// String formats weighted and k-of-n policies: pay for it only
		// when the span records.
		span.SetAttr("policy", fu.String())
	}
	p.fused = fuseRuns(p.fused[:0], fu, p.runs[:scales])
	span.End()
	return nil
}

// fuseRuns appends to dst the maximal runs of points that fu flags,
// given each scale's coverage runs (sorted, and apart by at least one
// point). A k-way walk over the runs' boundaries cuts the covered
// points into segments, each covered by one set of scales; fu decides
// once per segment, from that set (decideMask), and adjacent flagged
// segments merge. Points no scale covers stay unflagged: no valid
// policy fires on an empty vote.
func fuseRuns(dst []rawRange, fu Fusion, runs [][]rawRange) []rawRange {
	from := len(dst)
	// next[i] indexes scale i's first run that ends at or after p.
	var next [maxPyramidScales]int
	for p := 0; ; {
		var mask uint
		stop := -1 // one past the segment starting at p
		for i, r := range runs {
			if next[i] == len(r) {
				continue
			}
			cur, edge := r[next[i]], 0
			if cur.start <= p {
				mask |= 1 << i
				edge = cur.end + 1
			} else {
				edge = cur.start
			}
			if stop < 0 || edge < stop {
				stop = edge
			}
		}
		if stop < 0 {
			return dst
		}
		if mask != 0 && fu.decideMask(mask, len(runs)) {
			if k := len(dst) - 1; k >= from && dst[k].end+1 == p {
				dst[k].end = stop - 1
			} else {
				dst = append(dst, rawRange{start: p, end: stop - 1})
			}
		}
		for i, r := range runs {
			if next[i] < len(r) && r[next[i]].end < stop {
				next[i]++
			}
		}
		p = stop
	}
}

// DetectExplained runs every scale over the series and returns the
// fused detections. Each detection covers one maximal run of
// fused-flagged points (Start/End are original-resolution indices,
// Window is the detection's ordinal), carries the anomaly-type tag, the
// per-scale breakdown in Scales, and the fastest firing scale's
// predicates as the headline Fired set. ctx carries request-scoped
// instrumentation: on a sampled ctx the scoring runs under a "detect"
// span with a "scale_sweep" child per scale and a "fusion_decide" child
// over the fusion.
func (pm *PyramidModel) DetectExplained(ctx context.Context, s *Series) ([]WindowDetection, error) {
	ctx, span := trace.StartSpan(ctx, "detect")
	defer span.End()
	p, err := pm.sweep(ctx, s)
	if err != nil {
		return nil, err
	}
	defer p.release(pm)
	if err := pm.fuse(ctx, p); err != nil {
		return nil, err
	}
	out := pm.explain(p)
	if span != nil {
		span.SetAttr("fired", strconv.Itoa(len(out)))
	}
	return out, nil
}

// explain renders a fused pass into detections, in a fixed number of
// allocations however many windows fire. Every scale's fired windows
// become ScaleDetections in the pass's pooled slab, scale by scale in
// window order, their fired predicates in one slab sized by
// Marks.NumHits. Within a scale they are sorted by start, with ends
// that never decrease, so for fused runs taken in order each scale's
// detections overlapping a run are one contiguous block (overlapping).
// A counting walk over the runs sizes one slab for every breakdown, and
// a second walk fills it. Every Fired and Scales is a three-index
// subslice of its slab.
func (pm *PyramidModel) explain(p *pyramidPass) []WindowDetection {
	if len(p.fused) == 0 {
		return nil
	}
	scales := len(pm.models)
	numFired, numHits := 0, 0
	for _, marks := range p.marks[:scales] {
		numFired += marks.NumFired()
		numHits += marks.NumHits()
	}
	dets := slices.Grow(p.dets[:0], numFired)
	slab := make([]FiredPredicate, 0, numHits)
	var perScale [maxPyramidScales][]ScaleDetection
	for i, marks := range p.marks[:scales] {
		f := pm.Config.Factors[i]
		from := len(dets)
		for w := marks.NextFired(0); w >= 0; w = marks.NextFired(w + 1) {
			start, end := project(w, f, pm.Opts.Omega, p.n)
			k := len(slab)
			slab = pm.models[i].appendFired(slab, marks, w)
			dets = append(dets, ScaleDetection{
				Factor: f,
				Window: w,
				Start:  start,
				End:    end,
				Fired:  slab[k:len(slab):len(slab)],
			})
		}
		perScale[i] = dets[from:len(dets):len(dets)]
	}
	p.dets = dets

	var cursor [maxPyramidScales]int
	entries := 0
	for _, r := range p.fused {
		for i, ds := range perScale[:scales] {
			lo, hi := overlapping(ds, cursor[i], r)
			cursor[i] = lo
			entries += hi - lo
		}
	}
	out := make([]WindowDetection, len(p.fused))
	breakdowns := make([]ScaleDetection, 0, entries)
	cursor = [maxPyramidScales]int{}
	for j, r := range p.fused {
		from := len(breakdowns)
		for i, ds := range perScale[:scales] {
			lo, hi := overlapping(ds, cursor[i], r)
			cursor[i] = lo
			breakdowns = append(breakdowns, ds[lo:hi]...)
		}
		var sds []ScaleDetection
		var fired []FiredPredicate
		if len(breakdowns) > from {
			sds = breakdowns[from:len(breakdowns):len(breakdowns)]
			// The fastest overlapping scale's first firing carries the
			// headline explanation; the full breakdown is in Scales.
			fired = sds[0].Fired
		}
		out[j] = WindowDetection{
			Window: j,
			Start:  r.start,
			End:    r.end,
			Fired:  fired,
			Type:   pm.classifyScales(sds),
			Scales: sds,
		}
	}
	return out
}

// overlapping returns the block ds[lo:hi] of one scale's detections
// that overlap run r, given that none before ds[c] overlaps r or any
// later run: ds is sorted by start with ends that never decrease, so
// the ones ending before r are skipped and the overlapping ones are
// those after them that start by r's end.
func overlapping(ds []ScaleDetection, c int, r rawRange) (lo, hi int) {
	for c < len(ds) && ds[c].End < r.start {
		c++
	}
	hi = c
	for hi < len(ds) && ds[hi].Start <= r.end {
		hi++
	}
	return c, hi
}

// ScoreRanges reports the same fused point ranges DetectExplained would
// plus per-scale fired/swept window counts, skipping the per-run scale
// breakdowns, anomaly typing, and rule rendering — the lean surface
// shadow scoring runs a candidate through.
func (pm *PyramidModel) ScoreRanges(ctx context.Context, s *Series) (RangeStats, error) {
	ctx, span := trace.StartSpan(ctx, "score_ranges")
	defer span.End()
	p, err := pm.sweep(ctx, s)
	if err != nil {
		return RangeStats{}, err
	}
	defer p.release(pm)
	if err := pm.fuse(ctx, p); err != nil {
		return RangeStats{}, err
	}
	scales := len(pm.models)
	st := RangeStats{ScaleFired: make([]int, scales), ScaleWindows: make([]int, scales)}
	for i, marks := range p.marks[:scales] {
		st.ScaleFired[i] = marks.NumFired()
		st.ScaleWindows[i] = marks.NumWindows()
	}
	if len(p.fused) > 0 {
		st.Ranges = make([][2]int, len(p.fused))
		for j, r := range p.fused {
			st.Ranges[j] = [2]int{r.start, r.end}
		}
	}
	return st, nil
}

// PointFlags returns the fused per-point anomaly flags — with a single
// scale and the FuseAny default, exactly Model.PointFlags.
func (pm *PyramidModel) PointFlags(s *Series) ([]bool, error) {
	p, err := pm.sweep(context.Background(), s)
	if err != nil {
		return nil, err
	}
	defer p.release(pm)
	if err := pm.fuse(context.Background(), p); err != nil {
		return nil, err
	}
	return paintRuns(make([]bool, p.n), p.fused), nil
}

// paintRuns sets the flags of the points runs cover.
func paintRuns(flags []bool, runs []rawRange) []bool {
	for _, r := range runs {
		for q := r.start; q <= r.end; q++ {
			flags[q] = true
		}
	}
	return flags
}

// TrainFusion learns the pyramid's fusion parameters from labeled
// series — the step that turns `weighted` and `k-of-n` from hand-set
// policies into trained ones. Per-scale point-coverage indicators (the
// same projection detection fuses over) form the fire matrix, the point
// annotations the labels: FuseWeighted runs the deterministic logistic
// fit (FitFusionWeights), FuseKOfN sweeps the quorum for the best
// point-level F1 (FitFusionK), overwriting any hand-set parameters.
// Policies without trainable parameters return unchanged.
func (pm *PyramidModel) TrainFusion(train []*Series) error {
	var fit func(fired [][]bool, truth []bool) (Fusion, error)
	switch pm.Config.Fusion.Policy {
	case FuseWeighted:
		fit = FitFusionWeights
	case FuseKOfN:
		fit = FitFusionK
	default:
		return nil
	}
	// The fire matrix lives on one backing array: one row of a cell per
	// scale for each point, painted from each scale's coverage runs.
	scales := len(pm.models)
	var cells []bool
	var truth []bool
	for _, s := range train {
		if s.Anomalies == nil {
			return fmt.Errorf("cdt: series %q is unlabeled", s.Name)
		}
		p, err := pm.sweep(context.Background(), s)
		if err != nil {
			return err
		}
		base := len(cells)
		cells = append(cells, make([]bool, p.n*scales)...)
		for i, runs := range p.runs[:scales] {
			for _, r := range runs {
				for q := r.start; q <= r.end; q++ {
					cells[base+q*scales+i] = true
				}
			}
		}
		truth = append(truth, s.Anomalies[:p.n]...)
		p.release(pm)
	}
	fired := make([][]bool, len(truth))
	for p := range fired {
		fired[p] = cells[p*scales : (p+1)*scales : (p+1)*scales]
	}
	fu, err := fit(fired, truth)
	if err != nil {
		return err
	}
	pm.Config.Fusion = fu
	return nil
}

// Evaluate scores the fused detection on labeled series. Unlike
// Model.Evaluate, which is window-level (scales are not window-aligned,
// so there is no shared window clock to score on), pyramid evaluation is
// point-level: fused point flags against the per-point annotations. Q
// and FH are zero — rule quality is a per-scale notion; audit the scale
// models individually for it.
func (pm *PyramidModel) Evaluate(eval []*Series) (Report, error) {
	if len(eval) == 0 {
		return Report{}, fmt.Errorf("cdt: no evaluation series")
	}
	var conf evalmetrics.Confusion
	for _, s := range eval {
		if s.Anomalies == nil {
			return Report{}, fmt.Errorf("cdt: series %q is unlabeled", s.Name)
		}
		flags, err := pm.PointFlags(s)
		if err != nil {
			return Report{}, err
		}
		for p := range flags {
			conf.Add(flags[p], s.Anomalies[p])
		}
	}
	return Report{
		Confusion: conf,
		F1:        conf.F1(),
		NumRules:  pm.NumRules(),
	}, nil
}

// recentRanges caps how many past detection ranges each scale keeps for
// the streaming cross-scale overlap check.
const recentRanges = 8

// pyramidScaleStream is one scale's online state: a bucket accumulator
// feeding the scale model's stream.
type pyramidScaleStream struct {
	factor int
	stream *Stream
	bucket []float64
}

// rawRange is a detection's covered original-resolution points.
type rawRange struct{ start, end int }

// PyramidStream is the online detector of a PyramidModel: one bucket
// accumulator plus model stream per scale, detections projected back to
// original-resolution indices and typed at emission. It is not safe for
// concurrent use.
//
// Streaming semantics differ from batch in three documented ways:
// scales emit as they become decidable (any-scale semantics — stricter
// Fusion policies apply to batch detection, where all scales are known);
// a trailing partial bucket is never scored (batch aggregates it); and a
// detection emitted before a slower scale fires over the same points is
// typed without that future knowledge (the slower scale's own detection,
// arriving later, is typed collective). The base scale (factor 1)
// behaves exactly like the plain model's Stream.
type PyramidStream struct {
	pm     *PyramidModel
	agg    timeseries.Aggregator
	scales []pyramidScaleStream
	recent [][]rawRange

	n int
}

// NewStream starts an online pyramid detector. The scale semantics are
// those of Model.NewStream; every resolution shares the value range.
// For a pyramid trained over one column of a multivariate feed
// (Config.Dim), push that column's readings, as every other pyramid
// surface takes them.
// Normalize-then-aggregate (batch) and aggregate-then-normalize
// (streaming) agree for mean and max under an affine scale; out-of-range
// values clamp after aggregation here, per-point in batch.
func (pm *PyramidModel) NewStream(scale Scale) (*PyramidStream, error) {
	agg, err := aggregatorOf(pm.Config.Aggregator)
	if err != nil {
		return nil, err
	}
	ps := &PyramidStream{pm: pm, agg: agg}
	for i, m := range pm.models {
		f := pm.Config.Factors[i]
		st, err := m.NewStream(scale)
		if err != nil {
			return nil, err
		}
		ps.scales = append(ps.scales, pyramidScaleStream{
			factor: f,
			stream: st,
			bucket: make([]float64, 0, f),
		})
	}
	ps.recent = make([][]rawRange, len(ps.scales))
	return ps, nil
}

// classifyLive types a detection at emission from scale si over raw
// points [rs, re].
func (ps *PyramidStream) classifyLive(si, rs, re int, fired []FiredPredicate) AnomalyType {
	for sj := range ps.recent {
		if sj == si {
			continue
		}
		for _, r := range ps.recent[sj] {
			if r.start <= re && rs <= r.end {
				return TypeCollective
			}
		}
	}
	if ps.pm.Config.Factors[si] == 1 && ps.pm.anyPeak(si, fired) {
		return TypePoint
	}
	return TypeContextual
}

// remember records a detection range for future cross-scale checks,
// keeping the last recentRanges per scale.
func (ps *PyramidStream) remember(si, rs, re int) {
	r := ps.recent[si]
	if len(r) == recentRanges {
		copy(r, r[1:])
		r = r[:recentRanges-1]
	}
	ps.recent[si] = append(r, rawRange{start: rs, end: re})
}

// Push consumes the next original-resolution reading and returns every
// scale detection that became decidable with it, fastest scale first.
// Each detection carries original-resolution indices, the firing scale's
// factor, and the anomaly-type tag.
func (ps *PyramidStream) Push(value float64) []Detection {
	ps.n++
	var out []Detection
	for si := range ps.scales {
		acc := &ps.scales[si]
		acc.bucket = append(acc.bucket, value)
		if len(acc.bucket) < acc.factor {
			continue
		}
		v := ps.agg(acc.bucket)
		acc.bucket = acc.bucket[:0]
		for _, d := range acc.stream.Push(v) {
			rs := d.WindowStart * acc.factor
			re := d.WindowEnd*acc.factor + acc.factor - 1
			typ := ps.classifyLive(si, rs, re, d.Fired)
			ps.remember(si, rs, re)
			out = append(out, Detection{
				WindowStart: rs,
				WindowEnd:   re,
				Fired:       d.Fired,
				Scale:       acc.factor,
				Type:        typ,
			})
		}
	}
	return out
}

// Points returns the number of original-resolution readings consumed.
func (ps *PyramidStream) Points() int { return ps.n }

// Ready reports whether the base scale has seen enough points to
// evaluate full windows (slower scales need proportionally more).
func (ps *PyramidStream) Ready() bool { return ps.scales[0].stream.Ready() }

// Reset clears every scale's stream, bucket, and recent-detection state,
// keeping the models and scale.
func (ps *PyramidStream) Reset() {
	ps.n = 0
	for si := range ps.scales {
		ps.scales[si].bucket = ps.scales[si].bucket[:0]
		ps.scales[si].stream.Reset()
		ps.recent[si] = nil
	}
}
