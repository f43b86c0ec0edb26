package cdt

// Multivariate support — the paper's final future-work item ("we could
// also expand our method to suit multivariate time-series"). Each
// dimension is labeled with its own pattern alphabet and grows its own
// CDT; a combination policy fuses the per-dimension window verdicts.
// Per-dimension rules stay individually interpretable ("dimension
// 'pressure': IF [PN[-H,-H]] THEN anomaly"), which preserves the paper's
// whole point while covering multivariate feeds.
//
// MultiModel is the first consumer of the shared ensemble layer
// (fusion.go): member d scores dimension d, and CombinePolicy maps onto
// the matching Fusion policy. The fused verdicts are bit-identical to
// the pre-ensemble implementation (pinned by TestMultiModelDifferential).

import (
	"fmt"
	"strings"

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

// CombinePolicy fuses per-dimension window verdicts.
type CombinePolicy int

const (
	// CombineAny flags a window when any dimension's rules fire — the
	// sensitive default (an anomaly may manifest in one dimension only).
	CombineAny CombinePolicy = iota
	// CombineMajority flags a window when more than half the dimensions
	// fire.
	CombineMajority
	// CombineAll flags a window only when every dimension fires — the
	// high-precision setting.
	CombineAll
)

// String names the policy.
func (p CombinePolicy) String() string {
	switch p {
	case CombineMajority:
		return "majority"
	case CombineAll:
		return "all"
	}
	return "any"
}

// fusion maps the policy onto the shared ensemble layer's equivalent.
func (p CombinePolicy) fusion() Fusion {
	switch p {
	case CombineMajority:
		return Fusion{Policy: FuseMajority}
	case CombineAll:
		return Fusion{Policy: FuseAll}
	}
	return Fusion{Policy: FuseAny}
}

// MultiModel is one trained CDT per dimension plus the fusion policy.
type MultiModel struct {
	// Opts is the shared per-dimension training configuration.
	Opts Options
	// Policy fuses dimension verdicts.
	Policy CombinePolicy

	ens   Ensemble
	names []string
}

// FitMulti trains one CDT per dimension over the aligned training feeds.
// Every feed must have the same dimensionality; dimension d of every
// feed trains model d, using the feed's shared anomaly annotation.
func FitMulti(train []*MultiSeries, opts Options, policy CombinePolicy) (*MultiModel, error) {
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
	mm.ens.Fuse = policy.fusion()
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
		mm.ens.Members = append(mm.ens.Members, Member{Name: train[0].Dims[d].Name, Model: model})
		mm.names = append(mm.names, train[0].Dims[d].Name)
	}
	return mm, nil
}

// Dimensions returns the number of per-dimension models.
func (mm *MultiModel) Dimensions() int { return len(mm.ens.Members) }

// DimensionModel returns dimension d's trained CDT.
func (mm *MultiModel) DimensionModel(d int) *Model { return mm.ens.Members[d].Model }

// DetectWindows fuses the per-dimension window verdicts for one feed.
func (mm *MultiModel) DetectWindows(ms *MultiSeries) ([]bool, error) {
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	return mm.ens.DetectAligned(ms.Dims)
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
		obs, err := observations(truthSeries, mm.ens.Members[0].Model.pcfg, mm.Opts.Omega)
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
func (mm *MultiModel) NumRules() int { return mm.ens.NumRules() }

// RuleText renders each dimension's rules under a header.
func (mm *MultiModel) RuleText() string {
	var b strings.Builder
	for d, mem := range mm.ens.Members {
		name := mm.names[d]
		if name == "" {
			name = fmt.Sprintf("dim%d", d)
		}
		fmt.Fprintf(&b, "dimension %q:\n", name)
		for _, line := range strings.Split(strings.TrimRight(mem.Model.RuleText(), "\n"), "\n") {
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
