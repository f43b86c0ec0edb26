package cdt_test

// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§4). Each BenchmarkTableN/BenchmarkFigureN runs the same
// code path as `go run ./cmd/experiments -exp tableN` and prints the
// reproduced table (with the paper's values alongside) once per process.
//
// The tuning budgets here are reduced so `go test -bench=.` completes in
// minutes; `cmd/experiments` uses the larger defaults and `-full`
// switches to paper-scale datasets.
//
// BenchmarkAblation* quantify the design decisions called out in
// DESIGN.md §5: matching mode, leaf policy, split criterion, Boolean
// simplification, and the composition-length cap.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	cdt "cdt"
	"cdt/internal/bayesopt"
	"cdt/internal/core"
	"cdt/internal/datasets/sge"
	"cdt/internal/engine"
	"cdt/internal/experiments"
	"cdt/internal/iforest"
	"cdt/internal/matrixprofile"
	"cdt/internal/pattern"
	"cdt/internal/pav"
	"cdt/internal/pbad"
	"cdt/internal/rules"
)

var (
	suiteOnce  sync.Once
	benchSuite *experiments.Suite
)

// sharedSuite reuses one experiment suite across benchmarks so tuned
// hyper-parameters are computed once per process.
func sharedSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.Config{Seed: 42, BOInit: 4, BOIters: 8})
	})
	return benchSuite
}

var printOnce sync.Map

// printTable emits a reproduced table exactly once per process.
func printTable(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

func BenchmarkTable2HyperparamOptimization(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		printTable("table2", experiments.FormatTable2(rows))
	}
}

func BenchmarkTable3PatternBaselines(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		printTable("table3", experiments.FormatTable3(rows))
	}
}

func BenchmarkTable4RuleLearners(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		printTable("table4", experiments.FormatTable4(rows))
	}
}

func BenchmarkTable5ExampleRules(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Table5()
		if err != nil {
			b.Fatal(err)
		}
		printTable("table5", experiments.FormatTable5(rows))
	}
}

func BenchmarkFigure1PatternLabeling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("figure1", experiments.Figure1())
	}
}

func BenchmarkFigure2TreeConstruction(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		out, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		printTable("figure2", out)
	}
}

func BenchmarkFigure3RuleCounts(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		rows, err := s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		printTable("figure3", experiments.FormatFigure3(rows))
	}
}

// --- ablations --------------------------------------------------------

// ablationData builds one labeled training/test pair used by all
// ablation benches.
func ablationData(b *testing.B) (train, test []*cdt.Series) {
	b.Helper()
	s := sharedSuite()
	p, err := s.Dataset("SGE_Calorie")
	if err != nil {
		b.Fatal(err)
	}
	return p.TrainVal(), p.Test
}

// ablationFit trains with the given options and reports test F1 and rule
// count through benchmark metrics.
func ablationFit(b *testing.B, train, test []*cdt.Series, opts cdt.Options, label string) {
	b.Helper()
	var f1 float64
	var nRules int
	for i := 0; i < b.N; i++ {
		model, err := cdt.Fit(train, opts)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := model.Evaluate(test)
		if err != nil {
			b.Fatal(err)
		}
		f1, nRules = rep.F1, model.NumRules()
	}
	b.ReportMetric(f1, "testF1")
	b.ReportMetric(float64(nRules), "rules")
	printTable("ablation/"+label, fmt.Sprintf("ablation %-28s testF1=%.3f rules=%d", label, f1, nRules))
}

func BenchmarkAblationMatching(b *testing.B) {
	train, test := ablationData(b)
	base := cdt.Options{Omega: 5, Delta: 2, MaxCompositionLen: 3}
	b.Run("contiguous", func(b *testing.B) {
		opts := base
		opts.Match = core.MatchContiguous
		ablationFit(b, train, test, opts, "match=contiguous")
	})
	b.Run("subsequence", func(b *testing.B) {
		opts := base
		opts.Match = core.MatchSubsequence
		ablationFit(b, train, test, opts, "match=subsequence")
	})
}

func BenchmarkAblationLeafPolicy(b *testing.B) {
	train, test := ablationData(b)
	base := cdt.Options{Omega: 5, Delta: 2, MaxCompositionLen: 4}
	b.Run("pure", func(b *testing.B) {
		opts := base
		opts.LeafPolicy = rules.PureAnomalyLeaves
		ablationFit(b, train, test, opts, "leaves=pure")
	})
	b.Run("majority", func(b *testing.B) {
		opts := base
		opts.LeafPolicy = rules.MajorityAnomalyLeaves
		ablationFit(b, train, test, opts, "leaves=majority")
	})
}

func BenchmarkAblationSplitCriterion(b *testing.B) {
	train, test := ablationData(b)
	base := cdt.Options{Omega: 5, Delta: 2, MaxCompositionLen: 4}
	b.Run("gini", func(b *testing.B) {
		opts := base
		opts.Criterion = core.Gini
		ablationFit(b, train, test, opts, "criterion=gini")
	})
	b.Run("entropy", func(b *testing.B) {
		opts := base
		opts.Criterion = core.Entropy
		ablationFit(b, train, test, opts, "criterion=entropy")
	})
}

func BenchmarkAblationMaxCompositionLen(b *testing.B) {
	train, test := ablationData(b)
	for _, maxLen := range []int{1, 2, 4, 8, 0} {
		name := fmt.Sprintf("cap=%d", maxLen)
		if maxLen == 0 {
			name = "cap=unlimited"
		}
		b.Run(name, func(b *testing.B) {
			opts := cdt.Options{Omega: 5, Delta: 2, MaxCompositionLen: maxLen}
			ablationFit(b, train, test, opts, "composition-"+name)
		})
	}
}

func BenchmarkAblationSimplification(b *testing.B) {
	train, _ := ablationData(b)
	model, err := cdt.Fit(train, cdt.Options{Omega: 5, Delta: 2, MaxCompositionLen: 4})
	if err != nil {
		b.Fatal(err)
	}
	raw := model.RawRule()
	var before, after int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simplified := rules.Simplify(raw)
		before, after = countLiterals(raw), countLiterals(simplified)
	}
	b.ReportMetric(float64(before), "literalsBefore")
	b.ReportMetric(float64(after), "literalsAfter")
	printTable("ablation/simplify", fmt.Sprintf("ablation simplification: literals %d -> %d, predicates %d -> %d",
		before, after, raw.Count(), rules.Simplify(raw).Count()))
}

func countLiterals(r rules.Rule) int {
	n := 0
	for _, p := range r.Predicates {
		n += len(p.Literals)
	}
	return n
}

// --- micro-benchmarks on the core primitives --------------------------

func benchValues(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	for i := range values {
		values[i] = 0.5 + 0.4*math.Sin(float64(i)/7) + 0.05*rng.Float64()
	}
	return values
}

func BenchmarkPatternLabeling(b *testing.B) {
	values := benchValues(10000, 1)
	cfg := pattern.NewConfig(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.LabelSeries(values); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeBuild(b *testing.B) {
	values := benchValues(2000, 2)
	anoms := make([]bool, len(values))
	for _, at := range []int{100, 400, 700, 1000, 1300, 1600, 1900} {
		values[at] = 2
		anoms[at] = true
	}
	cfg := pattern.NewConfig(2)
	labels, err := cfg.LabelSeries(values)
	if err != nil {
		b.Fatal(err)
	}
	obs, err := core.Windows(labels, anoms, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(obs, core.Options{MaxCompositionLen: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeBuildCalorie induces the tree of the repository
// benchmark's train workload at its winning fit: the first four of six
// seed-1 calorie sensors × 365 days, pooled by a Corpus at ω = 26,
// δ = 3, with no composition-length cap. Candidate enumeration
// dominates at this shape (up to 351 sub-compositions per anomalous
// window), unlike BenchmarkTreeBuild's ω = 10 with a cap of 4.
func BenchmarkTreeBuildCalorie(b *testing.B) {
	cal := sge.Calorie(sge.CalorieOptions{Sensors: 6, Days: 365, Seed: 1}).Series[:4]
	corpus, err := cdt.NewCorpus(cal)
	if err != nil {
		b.Fatal(err)
	}
	obs, err := corpus.Observations(cdt.Options{Omega: 26, Delta: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(obs, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeBuildPyramidX1 induces the ×1 tree of the train
// workload's pyramid: one year of hourly electricity at ω = 8, δ = 2.
// Its tree is a long chain (one small anomaly leaf peeled off per
// split), so it measures how much of each split's pool is recounted.
func BenchmarkTreeBuildPyramidX1(b *testing.B) {
	el := sge.Electricity(sge.ElectricityOptions{Hours: 365 * 24, Seed: 1}).Series[0]
	corpus, err := cdt.NewCorpus([]*cdt.Series{el})
	if err != nil {
		b.Fatal(err)
	}
	obs, err := corpus.Observations(cdt.Options{Omega: 8, Delta: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(obs, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitFusionWeights fits weighted fusion over a fire matrix the
// size of the train workload's: one year of hourly points × 3 scales.
func BenchmarkFitFusionWeights(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	fired := make([][]bool, 365*24)
	truth := make([]bool, len(fired))
	for t := range fired {
		truth[t] = rng.Intn(10) == 0
		fired[t] = make([]bool, 3)
		for i := range fired[t] {
			p := 20
			if truth[t] {
				p = 2 + i
			}
			fired[t][i] = rng.Intn(p) == 0
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cdt.FitFusionWeights(fired, truth); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuleDetection(b *testing.B) {
	train := cdt.NewLabeledSeries("t", benchValues(1000, 3), make([]bool, 1000))
	train.Values[500] = 2
	train.Anomalies[500] = true
	model, err := cdt.Fit([]*cdt.Series{train}, cdt.Options{Omega: 8, Delta: 2})
	if err != nil {
		b.Fatal(err)
	}
	target := cdt.NewSeries("x", benchValues(5000, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.DetectWindows(target); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepSink keeps BenchmarkSweepCalorie's results live.
var sweepSink *engine.Marks

// BenchmarkSweepCalorie scores the repository benchmark's batch-plain
// traffic shape in process: the served calorie model (the first four
// of five seed-2 calorie sensors × 2,000 days at ω = 5, δ = 2; 15
// predicates over 21 compositions) over 8 held-out 2,000-point seed-1
// series. /sweep runs the compiled engine's Sweep over the series'
// labels; /detect runs DetectExplained (normalize, label, sweep,
// render). Each op covers all 8 series.
func BenchmarkSweepCalorie(b *testing.B) {
	const days = 2000
	train := sge.Calorie(sge.CalorieOptions{Sensors: 5, Days: days, Seed: 2}).Series[:4]
	opts := cdt.Options{Omega: 5, Delta: 2}
	model, err := cdt.Fit(train, opts)
	if err != nil {
		b.Fatal(err)
	}
	e := engine.Compile(model.Rule(), opts.Omega)
	held := sge.Calorie(sge.CalorieOptions{Sensors: 8, Days: days, Seed: 1}).Series
	series := make([]*cdt.Series, len(held))
	labels := make([][]pattern.Label, len(held))
	for i, s := range held {
		series[i] = cdt.NewSeries(s.Name, s.Values)
		ns := series[i].Clone()
		if _, err := ns.Normalize(); err != nil {
			b.Fatal(err)
		}
		if labels[i], err = pattern.NewConfig(opts.Delta).LabelSeries(ns.Values); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ls := range labels {
				sweepSink = e.Sweep(ls)
			}
		}
	})
	b.Run("detect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range series {
				if _, err := model.DetectExplained(context.Background(), s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkRuleDetectionBaseline is the pre-engine detection path —
// window the series, then re-match every composition of every predicate
// against every window independently (rules.Rule.DetectAll, the
// executable reference semantics). BenchmarkRuleDetection above now
// runs the same workload through the compiled engine's single sweep;
// the pair quantifies what compiling the rule set buys.
// Acceptance target: the engine path ≥2× faster at 1 CPU.
func BenchmarkRuleDetectionBaseline(b *testing.B) {
	train := cdt.NewLabeledSeries("t", benchValues(1000, 3), make([]bool, 1000))
	train.Values[500] = 2
	train.Anomalies[500] = true
	model, err := cdt.Fit([]*cdt.Series{train}, cdt.Options{Omega: 8, Delta: 2})
	if err != nil {
		b.Fatal(err)
	}
	target := cdt.NewSeries("x", benchValues(5000, 4))
	rule := model.Rule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs, err := cdt.ObservationsOf(target, model.Opts)
		if err != nil {
			b.Fatal(err)
		}
		rule.DetectAll(obs)
	}
}

// BenchmarkPyramidDetect measures multi-scale detection end to end: one
// compiled-engine sweep per resolution over downsampled views of the
// target, point-level fusion of the per-scale flags, and anomaly-type
// classification of each fused run. Compare against
// BenchmarkRuleDetection (single scale, no fusion, same target length)
// for the overhead each extra resolution adds.
func BenchmarkPyramidDetect(b *testing.B) {
	train := cdt.NewLabeledSeries("t", benchValues(1000, 3), make([]bool, 1000))
	train.Values[500] = 2
	train.Anomalies[500] = true
	for i := 700; i < 732; i++ { // sustained run, so coarse scales learn too
		train.Values[i] = 1.8
		train.Anomalies[i] = true
	}
	pm, err := cdt.FitPyramid([]*cdt.Series{train}, cdt.Options{Omega: 8, Delta: 2},
		cdt.PyramidConfig{Factors: []int{1, 4, 16}, Aggregator: "max"})
	if err != nil {
		b.Fatal(err)
	}
	target := cdt.NewSeries("x", benchValues(5000, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pm.DetectExplained(context.Background(), target); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatrixProfileSTOMP(b *testing.B) {
	values := benchValues(2000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrixprofile.Compute(values, 24); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPBADPipeline(b *testing.B) {
	values := benchValues(2000, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pbad.Detect(values, pbad.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPAVScoring(b *testing.B) {
	values := benchValues(10000, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pav.Scores(values, pav.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIsolationForest(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	points := make([][]float64, 2000)
	for i := range points {
		points[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := iforest.Fit(points, iforest.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.ScoreAll(points[:100]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBayesianOptimizationStep(b *testing.B) {
	train := cdt.NewLabeledSeries("t", benchValues(600, 9), make([]bool, 600))
	for _, at := range []int{100, 300, 500} {
		train.Values[at] = 2
		train.Anomalies[at] = true
	}
	val := cdt.NewLabeledSeries("v", benchValues(400, 10), make([]bool, 400))
	val.Values[200] = 2
	val.Anomalies[200] = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cdt.Optimize([]*cdt.Series{train}, []*cdt.Series{val}, cdt.ObjectiveF1, cdt.OptimizeOptions{
			OmegaMax: 9, DeltaMax: 4, InitPoints: 3, Iterations: 4, Seed: int64(i),
			Base: cdt.Options{MaxCompositionLen: 3},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGeneralization measures the future-work extension
// (§5): magnitude generalization validated on the validation windows,
// scored on held-out test windows.
func BenchmarkAblationGeneralization(b *testing.B) {
	s := sharedSuite()
	p, err := s.Dataset("SGE_Calorie")
	if err != nil {
		b.Fatal(err)
	}
	model, err := cdt.Fit(p.TrainVal(), cdt.Options{Omega: 5, Delta: 8, MaxCompositionLen: 4})
	if err != nil {
		b.Fatal(err)
	}
	var exactF1, generalF1 float64
	var nRules int
	for i := 0; i < b.N; i++ {
		general, err := model.Generalize(p.Validation)
		if err != nil {
			b.Fatal(err)
		}
		var tp, fp, fn, gtp, gfp, gfn int
		for _, series := range p.Test {
			obs, err := cdt.ObservationsOf(series, model.Opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range obs {
				actual := o.Class == core.Anomaly
				if model.Rule().Detect(o.Labels) {
					if actual {
						tp++
					} else {
						fp++
					}
				} else if actual {
					fn++
				}
				if general.Detect(o.Labels) {
					if actual {
						gtp++
					} else {
						gfp++
					}
				} else if actual {
					gfn++
				}
			}
		}
		exactF1 = f1Of(tp, fp, fn)
		generalF1 = f1Of(gtp, gfp, gfn)
		nRules = general.Count()
	}
	b.ReportMetric(exactF1, "exactTestF1")
	b.ReportMetric(generalF1, "generalTestF1")
	b.ReportMetric(float64(nRules), "generalRules")
	printTable("ablation/generalize", fmt.Sprintf(
		"ablation generalization: exact rules=%d testF1=%.3f -> generalized rules=%d testF1=%.3f",
		model.NumRules(), exactF1, nRules, generalF1))
}

func f1Of(tp, fp, fn int) float64 {
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	return 2 * p * r / (p + r)
}

// BenchmarkAblationOptimizer contrasts the hyper-parameter search
// strategies of §3.6 on one dataset: Bayesian optimization and random
// search at the same budget, exhaustive grid search as the upper bound.
func BenchmarkAblationOptimizer(b *testing.B) {
	s := sharedSuite()
	var rows []experiments.OptimizerComparison
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.CompareOptimizers("SGE_Calorie", 15)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.BestScore, r.Strategy+"F1")
	}
	printTable("ablation/optimizers", experiments.FormatOptimizerComparison("SGE_Calorie", rows))
}

func BenchmarkModelSaveLoad(b *testing.B) {
	train := cdt.NewLabeledSeries("t", benchValues(1500, 11), make([]bool, 1500))
	for _, at := range []int{200, 600, 1000, 1400} {
		train.Values[at] = 2
		train.Anomalies[at] = true
	}
	model, err := cdt.Fit([]*cdt.Series{train}, cdt.Options{Omega: 8, Delta: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := cdt.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- corpus pipeline benchmarks ---------------------------------------
//
// The Optimize pair measures the steady-state hyper-parameter search the
// Suite actually runs: repeated searches over the same splits (two
// objectives, repeated budgets). The uncached baseline re-runs
// normalize → label → window for every candidate of every search; the
// cached variant drives OptimizeCorpus against warm corpora, so candidate
// evaluations pay only for tree induction and scoring.

// corpusBenchSeries builds a long sparse-anomaly labeled series: the
// regime where the preprocessing stages dominate tree induction.
func corpusBenchSeries(name string, n int, anomalyEvery int, seed int64) *cdt.Series {
	values := benchValues(n, seed)
	anoms := make([]bool, n)
	for at := anomalyEvery; at < n-1; at += anomalyEvery {
		values[at] = 2
		anoms[at] = true
	}
	return cdt.NewLabeledSeries(name, values, anoms)
}

func corpusBenchSearch() (train, val []*cdt.Series, opts cdt.OptimizeOptions) {
	train = []*cdt.Series{corpusBenchSeries("t", 20000, 4000, 20)}
	val = []*cdt.Series{corpusBenchSeries("v", 8000, 2500, 21)}
	opts = cdt.OptimizeOptions{
		OmegaMin: 3, OmegaMax: 12,
		DeltaMin: 1, DeltaMax: 6,
		InitPoints: 5, Iterations: 7,
		Seed: 42,
		Base: cdt.Options{MaxCompositionLen: 2},
	}
	return train, val, opts
}

// BenchmarkOptimizeUncached is the pre-corpus baseline: every candidate
// evaluation rebuilds the full preprocessing pipeline via bayesopt driven
// by from-scratch Fit/Evaluate (exactly what Optimize did before the
// corpus layer).
func BenchmarkOptimizeUncached(b *testing.B) {
	train, val, opts := corpusBenchSearch()
	space := bayesopt.Space{
		{Name: "omega", Min: opts.OmegaMin, Max: opts.OmegaMax},
		{Name: "delta", Min: opts.DeltaMin, Max: opts.DeltaMax},
	}
	objective := func(x []int) float64 {
		cfg := opts.Base
		cfg.Omega, cfg.Delta = x[0], x[1]
		model, err := cdt.Fit(train, cfg)
		if err != nil {
			return 0
		}
		rep, err := model.Evaluate(val)
		if err != nil {
			return 0
		}
		return rep.F1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := bayesopt.Maximize(objective, space, bayesopt.Options{
			InitPoints:  opts.InitPoints,
			Iterations:  opts.Iterations,
			Seed:        opts.Seed,
			LengthScale: 0.2,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeCached runs the identical search through OptimizeCorpus
// against corpora warmed by one prior search — the Suite's steady state,
// where the F(h) search follows the F1 search over the same splits.
// Acceptance target: ≥2× over BenchmarkOptimizeUncached.
func BenchmarkOptimizeCached(b *testing.B) {
	train, val, opts := corpusBenchSearch()
	trainC, err := cdt.NewCorpus(train)
	if err != nil {
		b.Fatal(err)
	}
	valC, err := cdt.NewCorpus(val)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cdt.OptimizeCorpus(trainC, valC, cdt.ObjectiveF1, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cdt.OptimizeCorpus(trainC, valC, cdt.ObjectiveF1, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The Fit pair isolates the labeling cache: repeated fits at a fixed δ
// with varying ω share one labeling through the corpus (and, warm, their
// window pools); uncached they re-label the series every time.

var fitSweepOmegas = []int{3, 4, 5, 6, 7, 8, 9, 10}

func BenchmarkRepeatedFitVaryingOmegaUncached(b *testing.B) {
	train := []*cdt.Series{corpusBenchSeries("t", 20000, 4000, 22)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, omega := range fitSweepOmegas {
			if _, err := cdt.Fit(train, cdt.Options{Omega: omega, Delta: 3, MaxCompositionLen: 2}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRepeatedFitVaryingOmegaCached(b *testing.B) {
	train := []*cdt.Series{corpusBenchSeries("t", 20000, 4000, 22)}
	c, err := cdt.NewCorpus(train)
	if err != nil {
		b.Fatal(err)
	}
	for _, omega := range fitSweepOmegas { // warm the per-(ω,δ) window pools
		if _, err := c.Fit(cdt.Options{Omega: omega, Delta: 3, MaxCompositionLen: 2}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, omega := range fitSweepOmegas {
			if _, err := c.Fit(cdt.Options{Omega: omega, Delta: 3, MaxCompositionLen: 2}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkStreamPush(b *testing.B) {
	train := cdt.NewLabeledSeries("t", benchValues(1000, 12), make([]bool, 1000))
	train.Values[500] = 2
	train.Anomalies[500] = true
	model, err := cdt.Fit([]*cdt.Series{train}, cdt.Options{Omega: 8, Delta: 2})
	if err != nil {
		b.Fatal(err)
	}
	stream, err := model.NewStream(cdt.Scale{Min: 0, Max: 2})
	if err != nil {
		b.Fatal(err)
	}
	values := benchValues(4096, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Push(values[i%len(values)])
	}
}

// BenchmarkStreamPushBaseline re-creates the pre-engine streaming hot
// loop — ring-shift the ω most recent labels and re-match the full
// window per point (rules.Rule.Detect) — against the same model and
// feed as BenchmarkStreamPush, which now steps the model's incremental
// engine cursor in O(1) amortized per point instead.
func BenchmarkStreamPushBaseline(b *testing.B) {
	train := cdt.NewLabeledSeries("t", benchValues(1000, 12), make([]bool, 1000))
	train.Values[500] = 2
	train.Anomalies[500] = true
	model, err := cdt.Fit([]*cdt.Series{train}, cdt.Options{Omega: 8, Delta: 2})
	if err != nil {
		b.Fatal(err)
	}
	rule := model.Rule()
	cfg := pattern.NewConfig(model.Opts.Delta)
	omega := model.Opts.Omega
	values := benchValues(4096, 13)
	var lastTwo [2]float64
	window := make([]pattern.Label, 0, omega)
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := values[i%len(values)] / 2 // normalize into [0,1] (scale 0..2)
		n++
		switch n {
		case 1:
			lastTwo[0] = v
			continue
		case 2:
			lastTwo[1] = v
			continue
		}
		label := cfg.LabelPoint(lastTwo[0], lastTwo[1], v)
		lastTwo[0], lastTwo[1] = lastTwo[1], v
		if len(window) < omega {
			window = append(window, label)
		} else {
			copy(window, window[1:])
			window[omega-1] = label
		}
		if len(window) == omega {
			rule.Detect(window)
		}
	}
}
