package cdt

import (
	"fmt"
	"runtime"
	"time"

	"cdt/internal/bayesopt"
	"cdt/internal/pattern"
)

// Objective selects what hyper-parameter optimization maximizes (§4.1
// optimizes both and reports both columns of Table 2).
type Objective int

const (
	// ObjectiveF1 maximizes the validation F1 score alone.
	ObjectiveF1 Objective = iota
	// ObjectiveFH maximizes F(h) = F1 · Q(R), trading accuracy against
	// rule interpretability (Equation 5).
	ObjectiveFH
)

// String names the objective.
func (o Objective) String() string {
	if o == ObjectiveFH {
		return "F(h)"
	}
	return "F1"
}

// OptimizeOptions configures the Bayesian hyper-parameter search. The
// zero value reproduces §4.1: ω ∈ [3,31], δ ∈ [1,21].
type OptimizeOptions struct {
	// OmegaMin/OmegaMax bound ω (defaults 3 and 31).
	OmegaMin, OmegaMax int
	// DeltaMin/DeltaMax bound δ (defaults 1 and 21).
	DeltaMin, DeltaMax int
	// InitPoints and Iterations drive the optimizer (defaults 5 and 25).
	InitPoints, Iterations int
	// Seed makes the search reproducible.
	Seed int64
	// LengthScale is the GP kernel length scale in normalized
	// coordinates. The default 0.2 works well for the smooth ω×δ
	// landscapes here; set to a negative value to select the scale
	// automatically per refit by log marginal likelihood (less stable at
	// the small sample counts typical of hyper-parameter budgets).
	LengthScale float64
	// Parallelism bounds the worker pool that evaluates the optimizer's
	// random initial design concurrently (init-point candidates are
	// independent CDT trainings against the shared corpus cache; the
	// surrogate-guided iterations that follow are inherently sequential).
	// 0 uses GOMAXPROCS; negative forces sequential evaluation. Results
	// are identical at any setting — only wall-clock changes.
	Parallelism int
	// Base carries the non-optimized options (criterion, matching,
	// epsilon, ...); its Omega/Delta are ignored.
	Base Options
	// Trace, when non-nil, receives one OptimizeTrial per evaluated
	// configuration as the search runs — the optimizer-progress feed the
	// experiments harness prints and a long search can surface to
	// operators. Trials arrive in evaluation order (deterministic at any
	// Parallelism); memoized repeats of a configuration do not re-fire.
	// The callback runs on the optimizer goroutine: keep it cheap, and do
	// not call back into the search. Durations are observability payload
	// only — they never influence the search, which stays bit-identical
	// run to run.
	Trace func(OptimizeTrial)
}

// OptimizeTrial reports one hyper-parameter evaluation to
// OptimizeOptions.Trace.
type OptimizeTrial struct {
	// Evaluation is the 1-based index of this trial in evaluation order.
	Evaluation int
	// Omega and Delta are the evaluated configuration.
	Omega, Delta int
	// Score is the validation objective at (Omega, Delta).
	Score float64
	// Elapsed is the wall-clock cost of training and scoring the
	// configuration.
	Elapsed time.Duration
}

func (o OptimizeOptions) withDefaults() OptimizeOptions {
	if o.OmegaMin <= 0 {
		o.OmegaMin = 3
	}
	if o.OmegaMax <= 0 {
		o.OmegaMax = 31
	}
	if o.DeltaMin <= 0 {
		o.DeltaMin = 1
	}
	if o.DeltaMax <= 0 {
		o.DeltaMax = 21
	}
	return o
}

// OptimizeResult reports a hyper-parameter search.
type OptimizeResult struct {
	// Best holds the winning options (Base with the optimized Omega and
	// Delta filled in).
	Best Options
	// BestScore is the validation objective at Best.
	BestScore float64
	// Evaluations counts distinct (ω,δ) configurations trained.
	Evaluations int
	// History lists every evaluated configuration in order.
	History []OptimizeSample
}

// OptimizeSample is one evaluated configuration. Elapsed is the
// wall-clock cost of the evaluation (observability only; see
// OptimizeTrial).
type OptimizeSample struct {
	Omega, Delta int
	Score        float64
	Elapsed      time.Duration
}

// Optimize selects (ω, δ) by Bayesian optimization (§3.6): each candidate
// configuration trains on the training series and is scored on the
// validation series with the chosen objective; a Gaussian-process
// surrogate with expected improvement picks the next candidate.
// Configurations that fail to train (e.g. ω larger than a series allows)
// score zero rather than aborting the search.
//
// Optimize is a wrapper over OptimizeCorpus with corpora built for this
// call; callers running several searches over the same splits (two
// objectives, repeated budgets) should build the corpora once and call
// OptimizeCorpus so candidate evaluations share the pipeline cache across
// searches.
func Optimize(train, validation []*Series, obj Objective, opts OptimizeOptions) (OptimizeResult, error) {
	if len(train) == 0 || len(validation) == 0 {
		return OptimizeResult{}, fmt.Errorf("cdt: optimize needs training and validation series")
	}
	trainCorpus, err := NewCorpus(train)
	if err != nil {
		return OptimizeResult{}, err
	}
	valCorpus, err := NewCorpus(validation)
	if err != nil {
		return OptimizeResult{}, err
	}
	return OptimizeCorpus(trainCorpus, valCorpus, obj, opts)
}

// OptimizeCorpus runs the Bayesian hyper-parameter search against
// pre-built corpora. Every candidate (ω, δ) trains via train.Fit and is
// scored via Model.EvaluateCorpus, so candidates sharing a δ share one
// labeling, repeated (ω, δ) candidates (within a search via the
// optimizer's own memo, and across searches via the corpus) share their
// windows, and the random init points fan out over a bounded worker pool
// (OptimizeOptions.Parallelism).
func OptimizeCorpus(train, validation *Corpus, obj Objective, opts OptimizeOptions) (OptimizeResult, error) {
	opts = opts.withDefaults()
	if train == nil || validation == nil {
		return OptimizeResult{}, fmt.Errorf("cdt: optimize needs training and validation corpora")
	}
	if opts.OmegaMax < opts.OmegaMin || opts.DeltaMax < opts.DeltaMin {
		return OptimizeResult{}, fmt.Errorf("cdt: inverted hyper-parameter bounds")
	}
	if opts.DeltaMax > pattern.MaxDelta {
		return OptimizeResult{}, fmt.Errorf("cdt: delta bound %d, want <= %d", opts.DeltaMax, pattern.MaxDelta)
	}
	space := bayesopt.Space{
		{Name: "omega", Min: opts.OmegaMin, Max: opts.OmegaMax},
		{Name: "delta", Min: opts.DeltaMin, Max: opts.DeltaMax},
	}
	objective := func(x []int) float64 {
		cfg := opts.Base
		cfg.Omega, cfg.Delta = x[0], x[1]
		model, err := train.Fit(cfg)
		if err != nil {
			return 0
		}
		rep, err := model.EvaluateCorpus(validation)
		if err != nil {
			return 0
		}
		if obj == ObjectiveFH {
			return rep.FH
		}
		return rep.F1
	}
	ls := opts.LengthScale
	switch {
	case ls == 0:
		ls = 0.2
	case ls < 0:
		ls = 0 // bayesopt interprets 0 as automatic selection
	}
	workers := opts.Parallelism
	switch {
	case workers == 0:
		workers = runtime.GOMAXPROCS(0)
	case workers < 0:
		workers = 1
	}
	var trace func(bayesopt.Sample)
	if opts.Trace != nil {
		n := 0
		trace = func(s bayesopt.Sample) {
			n++
			opts.Trace(OptimizeTrial{
				Evaluation: n,
				Omega:      s.X[0],
				Delta:      s.X[1],
				Score:      s.Y,
				Elapsed:    s.Elapsed,
			})
		}
	}
	res, err := bayesopt.Maximize(objective, space, bayesopt.Options{
		InitPoints:  opts.InitPoints,
		Iterations:  opts.Iterations,
		Seed:        opts.Seed,
		LengthScale: ls,
		Parallelism: workers,
		Trace:       trace,
	})
	if err != nil {
		return OptimizeResult{}, err
	}
	out := OptimizeResult{BestScore: res.BestValue, Evaluations: res.Evaluations}
	out.Best = opts.Base
	out.Best.Omega, out.Best.Delta = res.Best[0], res.Best[1]
	for _, s := range res.History {
		out.History = append(out.History, OptimizeSample{Omega: s.X[0], Delta: s.X[1], Score: s.Y, Elapsed: s.Elapsed})
	}
	return out, nil
}
