// Package cdt is the public API of this reproduction of
// "Human-Interpretable Rules for Anomaly Detection in Time-series"
// (Ben Kraiem, Ghozzi, Péninou, Roman-Jimenez & Teste, EDBT 2021).
//
// The Composition-based Decision Tree (CDT) learns a minimized set of
// human-readable IF-THEN rules that detect anomalies in univariate
// time-series:
//
//	series := cdt.NewLabeledSeries("sensor", values, anomalyFlags)
//	model, err := cdt.Fit([]*cdt.Series{series}, cdt.Options{Omega: 5, Delta: 2})
//	fmt.Print(model.RuleText())      // IF [PN[-H,-L], SCP[L,Z]] THEN anomaly ...
//	flags, err := model.PointFlags(other)
//
// Hyper-parameters ω (window size) and δ (magnitude granularity) can be
// selected automatically with Bayesian optimization (Optimize), targeting
// either pure F1 or the paper's interpretability-weighted objective
// F(h) = F1 · Q(R).
//
// The heavy lifting lives in internal packages: pattern (the 9-variation
// labeling alphabet of §3.2), core (the tree of §3.3), rules (extraction
// and Boolean simplification, §3.4), quality (I, M, Q and F(h), §3.5),
// and bayesopt (§3.6).
package cdt

import (
	"fmt"

	"cdt/internal/core"
	"cdt/internal/pattern"
	"cdt/internal/rules"
	"cdt/internal/timeseries"
)

// Series is a univariate time-series with optional anomaly annotations.
type Series = timeseries.Series

// NewSeries returns an unlabeled series.
func NewSeries(name string, values []float64) *Series {
	return timeseries.New(name, values)
}

// NewLabeledSeries returns a series with per-point anomaly flags (same
// length as values).
func NewLabeledSeries(name string, values []float64, anomalies []bool) *Series {
	return timeseries.NewLabeled(name, values, anomalies)
}

// Label is one pattern label (variation type + magnitude intervals).
type Label = pattern.Label

// Observation is one sliding window of labels with its class.
type Observation = core.Observation

// Rule is a disjunction of conjunctive rule predicates.
type Rule = rules.Rule

// Options configures CDT training. Omega and Delta are the paper's two
// hyper-parameters; everything else has faithful defaults.
type Options struct {
	// Omega is the sliding-window size ω (observations, Definition 4).
	Omega int
	// Delta is the magnitude granularity δ (2δ+1 intervals on [-1,1]).
	Delta int
	// Epsilon is the value-equality tolerance for "constant" variations
	// (default 1e-9).
	Epsilon float64
	// MaxCompositionLen caps candidate composition length (0 = up to ω).
	MaxCompositionLen int
	// MaxDepth caps tree depth (0 = unlimited, as in Algorithm 1).
	MaxDepth int
	// MinGain is the minimum information gain required to split
	// (0 reproduces the paper's strictly-positive-gain stop).
	MinGain float64
	// Criterion is the split impurity (default Gini, as in the paper).
	Criterion core.SplitCriterion
	// Match is the ⊆o semantics (default contiguous).
	Match core.MatchMode
	// LeafPolicy selects which leaves become rules (default the paper's
	// pure-anomaly leaves).
	LeafPolicy rules.LeafPolicy
	// Parallelism bounds the goroutines counting split supports in
	// subsequence mode (0 = GOMAXPROCS); contiguous matching counts in
	// one sequential pass.
	Parallelism int
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Omega < 1 {
		return fmt.Errorf("cdt: omega %d, want >= 1", o.Omega)
	}
	if o.Delta < 1 {
		return fmt.Errorf("cdt: delta %d, want >= 1", o.Delta)
	}
	if o.Epsilon < 0 {
		return fmt.Errorf("cdt: epsilon %v, want >= 0", o.Epsilon)
	}
	return nil
}

func (o Options) patternConfig() pattern.Config {
	eps := o.Epsilon
	if eps == 0 {
		eps = pattern.DefaultEpsilon
	}
	return pattern.Config{Delta: o.Delta, Epsilon: eps}
}

func (o Options) coreOptions() core.Options {
	return core.Options{
		Criterion:         o.Criterion,
		Match:             o.Match,
		MaxCompositionLen: o.MaxCompositionLen,
		MaxDepth:          o.MaxDepth,
		MinGain:           o.MinGain,
		Parallelism:       o.Parallelism,
	}
}

// ensureNormalized returns a series whose values lie in [0,1]: the input
// itself when already in range (so pre-normalized splits keep a common
// scale), otherwise a min-max-normalized clone (§3.1). It scans the
// values for their range once; Normalize would scan them again.
func ensureNormalized(s *Series) (*Series, error) {
	min, max, err := s.MinMax()
	if err != nil {
		return nil, err
	}
	if min >= 0 && max <= 1 {
		return s, nil
	}
	c := s.Clone()
	sc := timeseries.Scale{Min: min, Max: max}
	for i, v := range c.Values {
		c.Values[i] = sc.Apply(v)
	}
	return c, nil
}

// labeledSeries appends the labels of a series' normalization to dst
// and validates ω against their count — the shared front half of
// observations (training, truth pooling) and of the engine sweep
// (detection), so both paths reject the same inputs with the same
// errors. It follows ensureNormalized's rule without copying the
// series: one MinMax scan, then a series already in [0,1] is labeled as
// it is and any other is normalized inside the labeling pass, with
// Normalize's arithmetic, so the labels are bit-identical to labeling
// ensureNormalized's result. On error dst is returned unchanged.
func labeledSeries(dst []pattern.Label, s *Series, pcfg pattern.Config, omega int) ([]pattern.Label, error) {
	min, max, err := s.MinMax()
	if err != nil {
		return dst, fmt.Errorf("cdt: series %q: %w", s.Name, err)
	}
	var labels []pattern.Label
	if min >= 0 && max <= 1 {
		labels, err = pcfg.LabelSeriesInto(dst, s.Values)
	} else {
		labels, err = pcfg.LabelNormalizedInto(dst, s.Values, min, max)
	}
	if err != nil {
		return dst, fmt.Errorf("cdt: series %q: %w", s.Name, err)
	}
	if n := len(labels) - len(dst); omega > n {
		return dst, fmt.Errorf("cdt: series %q: omega %d exceeds %d labels", s.Name, omega, n)
	}
	return labels, nil
}

// observations labels a series and cuts it into classed windows.
func observations(s *Series, pcfg pattern.Config, omega int) ([]core.Observation, error) {
	labels, err := labeledSeries(nil, s, pcfg, omega)
	if err != nil {
		return nil, err
	}
	obs, err := core.Windows(labels, s.Anomalies, omega)
	if err != nil {
		return nil, fmt.Errorf("cdt: series %q: %w", s.Name, err)
	}
	return obs, nil
}

// ObservationsOf exposes the preprocessing pipeline (normalize → label →
// window) so callers can inspect what the model sees. The series may be
// unlabeled, in which case every observation is Normal-classed.
func ObservationsOf(s *Series, opts Options) ([]Observation, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return observations(s, opts.patternConfig(), opts.Omega)
}
