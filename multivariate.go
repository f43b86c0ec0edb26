package cdt

// Multivariate support — the paper's final future-work item ("we could
// also expand our method to suit multivariate time-series"). Each
// dimension is labeled with its own pattern alphabet and grows its own
// CDT; a fusion policy fuses the per-dimension window verdicts.
// Per-dimension rules stay individually interpretable ("dimension
// 'pressure': IF [PN[-H,-H]] THEN anomaly"), which preserves the paper's
// whole point while covering multivariate feeds.
//
// Model d scores dimension d on the shared window clock, and MultiModel
// fuses per window through the counting form (fusion.go), bit-identical
// to the original per-dimension vote loop (TestMultiModelDifferential).

import (
	"context"
	"fmt"

	"cdt/internal/core"
	"cdt/internal/evalmetrics"
)

// MultiSeries is a set of aligned series (equal length, same clock) with
// one shared anomaly annotation.
type MultiSeries struct {
	// Name identifies the multivariate feed.
	Name string
	// Dims holds one series per dimension. Per-dimension anomaly flags
	// are ignored; the shared annotation below is the ground truth.
	Dims []*Series
	// Anomalies flags anomalous time points (nil for unlabeled feeds).
	Anomalies []bool
}

// Validate checks alignment.
func (ms *MultiSeries) Validate() error {
	if len(ms.Dims) == 0 {
		return fmt.Errorf("cdt: multivariate series %q has no dimensions", ms.Name)
	}
	n := ms.Dims[0].Len()
	for d, s := range ms.Dims {
		if s.Len() != n {
			return fmt.Errorf("cdt: %q dimension %d has %d points, want %d", ms.Name, d, s.Len(), n)
		}
	}
	if ms.Anomalies != nil && len(ms.Anomalies) != n {
		return fmt.Errorf("cdt: %q has %d anomaly flags for %d points", ms.Name, len(ms.Anomalies), n)
	}
	return nil
}

// Dimension validates the feed and returns dimension d as a series
// carrying the feed's shared anomaly annotation: the series FitMulti
// trains dimension d's model on, and the readings a pyramid trained
// over column d (PyramidConfig.Dim) trains and scores on.
func (ms *MultiSeries) Dimension(d int) (*Series, error) {
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	if d < 0 || d >= len(ms.Dims) {
		return nil, fmt.Errorf("cdt: dimension %d outside feed %q's %d dimensions", d, ms.Name, len(ms.Dims))
	}
	return NewLabeledSeries(ms.Dims[d].Name, ms.Dims[d].Values, ms.Anomalies), nil
}

// Len returns the number of time points.
func (ms *MultiSeries) Len() int {
	if len(ms.Dims) == 0 {
		return 0
	}
	return ms.Dims[0].Len()
}

// MultiModel is one trained CDT per dimension plus the fusion policy.
type MultiModel struct {
	// Opts is the shared per-dimension training configuration.
	Opts Options
	// Policy fuses dimension verdicts per window: FuseAny, FuseMajority
	// or FuseAll. The quorum and weighted policies need parameters a
	// MultiModel does not carry, so DetectWindows rejects them.
	Policy FusionPolicy

	models []*Model
	names  []string
}

// FitMulti trains one CDT per dimension over the aligned training feeds.
// Every feed must have the same dimensionality; dimension d of every
// feed trains model d, using the feed's shared anomaly annotation.
func FitMulti(train []*MultiSeries, opts Options, policy FusionPolicy) (*MultiModel, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("cdt: no training feeds")
	}
	dims := len(train[0].Dims)
	for _, ms := range train {
		if err := ms.Validate(); err != nil {
			return nil, err
		}
		if len(ms.Dims) != dims {
			return nil, fmt.Errorf("cdt: feed %q has %d dimensions, want %d", ms.Name, len(ms.Dims), dims)
		}
	}
	mm := &MultiModel{Opts: opts, Policy: policy}
	for _, s := range train[0].Dims {
		mm.names = append(mm.names, s.Name)
	}
	if _, err := mm.fusion(); err != nil {
		return nil, err
	}
	for d := 0; d < dims; d++ {
		perDim := make([]*Series, len(train))
		for i, ms := range train {
			s, err := ms.Dimension(d)
			if err != nil {
				return nil, err
			}
			perDim[i] = s
		}
		// Per-variable training rides the shared Corpus pipeline like the
		// univariate trainers do.
		c, err := NewCorpus(perDim)
		if err != nil {
			return nil, fmt.Errorf("cdt: dimension %d: %w", d, err)
		}
		model, err := c.Fit(opts)
		if err != nil {
			return nil, fmt.Errorf("cdt: dimension %d: %w", d, err)
		}
		mm.models = append(mm.models, model)
	}
	return mm, nil
}

// fusion validates Policy and returns it as a Fusion. A rejection names
// the model's dimensions.
func (mm *MultiModel) fusion() (Fusion, error) {
	fu := Fusion{Policy: mm.Policy}
	return fu, fu.Validate(fmt.Sprintf("multivariate dimensions %q", mm.names), len(mm.names))
}

// Dimensions returns the number of per-dimension models.
func (mm *MultiModel) Dimensions() int { return len(mm.models) }

// DimensionModel returns dimension d's trained CDT.
func (mm *MultiModel) DimensionModel(d int) *Model { return mm.models[d] }

// DetectWindows fuses the per-dimension window verdicts for one feed,
// counting firing dimensions per window. Policy is validated on every
// call, so a policy assigned after fitting takes effect or errors.
func (mm *MultiModel) DetectWindows(ms *MultiSeries) ([]bool, error) {
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	fu, err := mm.fusion()
	if err != nil {
		return nil, err
	}
	if len(ms.Dims) != len(mm.models) {
		return nil, fmt.Errorf("cdt: feed has %d dimensions, model expects %d", len(ms.Dims), len(mm.models))
	}
	var counts []int
	for d, m := range mm.models {
		marks, err := m.detectMarks(context.Background(), ms.Dims[d])
		if err != nil {
			return nil, fmt.Errorf("cdt: dimension %d: %w", d, err)
		}
		if counts == nil {
			counts = make([]int, marks.NumWindows())
		}
		if marks.NumWindows() != len(counts) {
			return nil, fmt.Errorf("cdt: dimension %d has %d windows, want %d", d, marks.NumWindows(), len(counts))
		}
		for wi := range counts {
			if marks.Fired(wi) {
				counts[wi]++
			}
		}
	}
	out := make([]bool, len(counts))
	for wi, count := range counts {
		// Policy is unweighted, so every firing dimension weighs 1.
		out[wi] = fu.decide(count, float64(count), len(mm.models))
	}
	return out, nil
}

// Evaluate scores the fused detection on labeled feeds, pooling windows.
func (mm *MultiModel) Evaluate(eval []*MultiSeries) (Report, error) {
	if len(eval) == 0 {
		return Report{}, fmt.Errorf("cdt: no evaluation feeds")
	}
	var conf evalmetrics.Confusion
	for _, ms := range eval {
		if ms.Anomalies == nil {
			return Report{}, fmt.Errorf("cdt: feed %q is unlabeled", ms.Name)
		}
		predicted, err := mm.DetectWindows(ms)
		if err != nil {
			return Report{}, err
		}
		// Window wi covers points wi+1..wi+ω (same geometry as the
		// univariate model).
		truthSeries := NewLabeledSeries(ms.Name, ms.Dims[0].Values, ms.Anomalies)
		obs, err := observations(truthSeries, mm.models[0].pcfg, mm.Opts.Omega)
		if err != nil {
			return Report{}, err
		}
		if len(obs) != len(predicted) {
			return Report{}, fmt.Errorf("cdt: window count mismatch: %d vs %d", len(obs), len(predicted))
		}
		for wi := range obs {
			conf.Add(predicted[wi], obs[wi].Class == core.Anomaly)
		}
	}
	return Report{
		Confusion: conf,
		F1:        conf.F1(),
		NumRules:  mm.NumRules(),
	}, nil
}

// NumRules sums the rule counts of all dimension models.
func (mm *MultiModel) NumRules() int { return numRules(mm.models) }

// RuleText renders each dimension's rules under a header.
func (mm *MultiModel) RuleText() string {
	return memberText(mm.models, func(d int) string {
		name := mm.names[d]
		if name == "" {
			name = fmt.Sprintf("dim%d", d)
		}
		return fmt.Sprintf("dimension %q", name)
	}, (*Model).RuleText)
}
