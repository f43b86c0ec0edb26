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
// per-scale breakdown. With a single scale and the FuseAny default the
// fused flags equal Model.PointFlags exactly (pinned by
// TestPyramidSingleScaleGolden).

import (
	"context"
	"fmt"
	"slices"
	"strconv"

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

// sweep is the one per-scale pass every pyramid scoring surface runs
// over a normalized series: scale i resamples ns by its factor (after
// normalizing — mean and max keep [0,1], so the derived series is not
// re-stretched, the same order training applies through AtResolution),
// sweeps its model's engine, and projects each fired window onto the
// original-resolution points it covers. It returns the per-scale
// coverage flags and swept window counts; onFired, when non-nil, also
// sees every fired window w of scale i with its projected range and the
// scale's marks. Each scale's sweep gets a "scale_sweep" span on a
// sampled ctx and is timed for the context's ScaleSweepObserver (the
// serving layer's per-scale latency histograms); timing goes through
// telemetry.Stopwatch, the sanctioned wall-clock boundary for this
// detfloat-guarded package.
func (pm *PyramidModel) sweep(ctx context.Context, ns *Series, onFired func(i, w, start, end int, marks *engine.Marks)) ([][]bool, []int, error) {
	obs := scaleSweepObserver(ctx)
	n := ns.Len()
	coverage := make([][]bool, len(pm.models))
	windows := make([]int, len(pm.models))
	for i, m := range pm.models {
		f := pm.Config.Factors[i]
		var sw telemetry.Stopwatch
		if obs != nil {
			sw = telemetry.NewStopwatch()
		}
		sctx, span := trace.StartSpan(ctx, "scale_sweep")
		span.SetAttr("factor", strconv.Itoa(f))
		ds, err := ResampleTransform{Factor: f, Aggregator: pm.Config.Aggregator}.Apply([]*Series{ns})
		var marks *engine.Marks
		if err == nil {
			marks, err = m.detectMarks(sctx, ds)
		}
		if err != nil {
			span.End()
			return nil, nil, fmt.Errorf("cdt: pyramid scale x%d: %w", f, err)
		}
		cov := make([]bool, n)
		windows[i] = marks.NumWindows()
		for w := 0; w < marks.NumWindows(); w++ {
			if !marks.Fired(w) {
				continue
			}
			start := (w + 1) * f
			end := (w+pm.Opts.Omega+1)*f - 1
			if end >= n {
				end = n - 1
			}
			for p := start; p <= end; p++ {
				cov[p] = true
			}
			if onFired != nil {
				onFired(i, w, start, end, marks)
			}
		}
		coverage[i] = cov
		span.End()
		if obs != nil {
			obs(i, f, sw.Elapsed().Seconds())
		}
	}
	return coverage, windows, nil
}

// fusePoints applies Config.Fusion per original-resolution point over
// the per-scale coverage flags, under a "fusion_decide" span. The policy
// is validated first, so one assigned after fitting fuses or errors,
// never fuses as a policy LoadPyramid would refuse.
func (pm *PyramidModel) fusePoints(ctx context.Context, coverage [][]bool) ([]bool, error) {
	fu := pm.Config.Fusion
	if err := fu.Validate(fmt.Sprintf("pyramid scales %v", pm.Config.Factors), len(coverage)); err != nil {
		return nil, err
	}
	_, span := trace.StartSpan(ctx, "fusion_decide")
	if span != nil {
		// String formats weighted and k-of-n policies: pay for it only
		// when the span records.
		span.SetAttr("policy", fu.String())
	}
	flags := make([]bool, len(coverage[0]))
	for p := range flags {
		count, weight := 0, 0.0
		for i := range coverage {
			if coverage[i][p] {
				count++
				weight += fu.weight(i)
			}
		}
		flags[p] = fu.decide(count, weight, len(coverage))
	}
	span.End()
	return flags, nil
}

// nextRun returns the next maximal run [start, end] of set flags at or
// after p, with ok false when none is left.
func nextRun(flags []bool, p int) (start, end int, ok bool) {
	for p < len(flags) && !flags[p] {
		p++
	}
	if p == len(flags) {
		return 0, 0, false
	}
	start = p
	for p < len(flags) && flags[p] {
		p++
	}
	return start, p - 1, true
}

// DetectExplained runs every scale over the series and returns the
// fused detections. Each detection covers one maximal run of
// fused-flagged points (Start/End are original-resolution indices,
// Window is the detection's ordinal), carries the anomaly-type tag, the
// per-scale breakdown in Scales, and the fastest firing scale's
// predicates as the headline Fired set. ctx carries request-scoped
// instrumentation: on a sampled ctx the scoring runs under a "detect"
// span with a "scale_sweep" child per scale and a "fusion_decide" child
// over the point-level fusion.
func (pm *PyramidModel) DetectExplained(ctx context.Context, s *Series) ([]WindowDetection, error) {
	ns, err := ensureNormalized(s)
	if err != nil {
		return nil, err
	}
	ctx, span := trace.StartSpan(ctx, "detect")
	perScale := make([][]ScaleDetection, len(pm.models))
	// Every scale detection's Fired is a three-index subslice of one
	// slab; a subslice taken before the slab grows keeps the old array.
	var slab []FiredPredicate
	coverage, _, err := pm.sweep(ctx, ns, func(i, w, start, end int, marks *engine.Marks) {
		from := len(slab)
		slab = pm.models[i].appendFired(slab, marks, w)
		perScale[i] = append(perScale[i], ScaleDetection{
			Factor: pm.Config.Factors[i],
			Window: w,
			Start:  start,
			End:    end,
			Fired:  slab[from:len(slab):len(slab)],
		})
	})
	if err != nil {
		span.End()
		return nil, err
	}
	flags, err := pm.fusePoints(ctx, coverage)
	if err != nil {
		span.End()
		return nil, err
	}
	var out []WindowDetection
	for start, end, ok := nextRun(flags, 0); ok; start, end, ok = nextRun(flags, end+1) {
		var scales []ScaleDetection
		for i := range perScale {
			for _, sd := range perScale[i] {
				if sd.Start <= end && start <= sd.End {
					scales = append(scales, sd)
				}
			}
		}
		var fired []FiredPredicate
		if len(scales) > 0 {
			// The fastest overlapping scale's first firing carries the
			// headline explanation; the full breakdown is in Scales.
			fired = scales[0].Fired
		}
		out = append(out, WindowDetection{
			Window: len(out),
			Start:  start,
			End:    end,
			Fired:  fired,
			Type:   pm.classifyScales(scales),
			Scales: scales,
		})
	}
	if span != nil {
		span.SetAttr("fired", strconv.Itoa(len(out)))
	}
	span.End()
	return out, nil
}

// ScoreRanges reports the same fused point ranges DetectExplained would
// plus per-scale fired/swept window counts, skipping the per-run scale
// breakdowns, anomaly typing, and rule rendering — the lean surface
// shadow scoring runs a candidate through.
func (pm *PyramidModel) ScoreRanges(ctx context.Context, s *Series) (RangeStats, error) {
	ctx, span := trace.StartSpan(ctx, "score_ranges")
	defer span.End()
	ns, err := ensureNormalized(s)
	if err != nil {
		return RangeStats{}, err
	}
	st := RangeStats{ScaleFired: make([]int, len(pm.models))}
	coverage, windows, err := pm.sweep(ctx, ns, func(i, _, _, _ int, _ *engine.Marks) {
		st.ScaleFired[i]++
	})
	if err != nil {
		return RangeStats{}, err
	}
	st.ScaleWindows = windows
	flags, err := pm.fusePoints(ctx, coverage)
	if err != nil {
		return RangeStats{}, err
	}
	for start, end, ok := nextRun(flags, 0); ok; start, end, ok = nextRun(flags, end+1) {
		st.Ranges = append(st.Ranges, [2]int{start, end})
	}
	return st, nil
}

// PointFlags returns the fused per-point anomaly flags — with a single
// scale and the FuseAny default, exactly Model.PointFlags.
func (pm *PyramidModel) PointFlags(s *Series) ([]bool, error) {
	ns, err := ensureNormalized(s)
	if err != nil {
		return nil, err
	}
	coverage, _, err := pm.sweep(context.Background(), ns, nil)
	if err != nil {
		return nil, err
	}
	return pm.fusePoints(context.Background(), coverage)
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
	// scale for each point.
	scales := len(pm.models)
	var cells []bool
	var truth []bool
	for _, s := range train {
		if s.Anomalies == nil {
			return fmt.Errorf("cdt: series %q is unlabeled", s.Name)
		}
		ns, err := ensureNormalized(s)
		if err != nil {
			return err
		}
		coverage, _, err := pm.sweep(context.Background(), ns, nil)
		if err != nil {
			return err
		}
		cells = slices.Grow(cells, ns.Len()*scales)
		for p := 0; p < ns.Len(); p++ {
			for i := range coverage {
				cells = append(cells, coverage[i][p])
			}
		}
		truth = append(truth, s.Anomalies[:ns.Len()]...)
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
