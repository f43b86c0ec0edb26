package cdt

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cdt/internal/pattern"
)

// spikySeries generates a smooth seasonal series with labeled spike
// anomalies at fixed positions.
func spikySeries(name string, n int, spikes []int, seed int64) *Series {
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	anoms := make([]bool, n)
	for i := range values {
		values[i] = 50 + 10*math.Sin(float64(i)/5) + rng.Float64()
	}
	for _, idx := range spikes {
		values[idx] = 200
		anoms[idx] = true
	}
	return NewLabeledSeries(name, values, anoms)
}

func TestFitAndEvaluatePerfectOnSeparableData(t *testing.T) {
	train := spikySeries("train", 400, []int{50, 120, 200, 310}, 1)
	model, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := model.Evaluate([]*Series{train})
	if err != nil {
		t.Fatal(err)
	}
	if rep.F1 < 0.99 {
		t.Errorf("training F1 = %v, want ~1", rep.F1)
	}
	if rep.NumRules == 0 {
		t.Error("no rules extracted")
	}
	if rep.Q <= 0 || rep.Q > 1 {
		t.Errorf("Q = %v out of (0,1]", rep.Q)
	}
	if math.Abs(rep.FH-rep.F1*rep.Q) > 1e-12 {
		t.Error("FH != F1*Q")
	}
}

func TestModelGeneralizesToHeldOutSeries(t *testing.T) {
	train := spikySeries("train", 500, []int{60, 150, 250, 380}, 2)
	test := spikySeries("test", 300, []int{80, 190}, 99)
	model, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := model.Evaluate([]*Series{test})
	if err != nil {
		t.Fatal(err)
	}
	if rep.F1 < 0.8 {
		t.Errorf("held-out F1 = %v, want >= 0.8", rep.F1)
	}
}

func TestFitMultipleSeries(t *testing.T) {
	a := spikySeries("a", 200, []int{50, 120}, 3)
	b := spikySeries("b", 200, []int{70}, 4)
	model, err := Fit([]*Series{a, b}, Options{Omega: 4, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := model.Evaluate([]*Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if rep.F1 < 0.9 {
		t.Errorf("pooled F1 = %v", rep.F1)
	}
}

func TestFitValidation(t *testing.T) {
	s := spikySeries("s", 100, []int{50}, 5)
	if _, err := Fit(nil, Options{Omega: 5, Delta: 2}); err == nil {
		t.Error("no series accepted")
	}
	if _, err := Fit([]*Series{s}, Options{Omega: 0, Delta: 2}); err == nil {
		t.Error("omega 0 accepted")
	}
	if _, err := Fit([]*Series{s}, Options{Omega: 5, Delta: 0}); err == nil {
		t.Error("delta 0 accepted")
	}
	if _, err := Fit([]*Series{s}, Options{Omega: 5, Delta: 2, Epsilon: -1}); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := Fit([]*Series{s}, Options{Omega: 500, Delta: 2}); err == nil {
		t.Error("oversized omega accepted")
	}
}

func TestPointFlagsCoverSpikes(t *testing.T) {
	train := spikySeries("train", 400, []int{50, 120, 200, 310}, 6)
	model, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	flags, err := model.PointFlags(train)
	if err != nil {
		t.Fatal(err)
	}
	if len(flags) != train.Len() {
		t.Fatalf("got %d flags for %d points", len(flags), train.Len())
	}
	for _, spike := range []int{50, 120, 200, 310} {
		if !flags[spike] {
			t.Errorf("spike at %d not flagged", spike)
		}
	}
}

func TestDetectWindowsOnUnlabeledSeries(t *testing.T) {
	train := spikySeries("train", 300, []int{60, 150}, 7)
	model, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh := spikySeries("fresh", 200, []int{100}, 8)
	unlabeled := NewSeries("u", fresh.Values)
	windows, err := model.DetectWindows(unlabeled)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, w := range windows {
		if w {
			fired = true
		}
	}
	if !fired {
		t.Error("no detection on a series containing a spike")
	}
}

func TestRuleTextAndExplain(t *testing.T) {
	train := spikySeries("train", 300, []int{60, 150}, 9)
	model, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	text := model.RuleText()
	if !strings.Contains(text, "THEN anomaly") {
		t.Errorf("RuleText missing IF-THEN form:\n%s", text)
	}
	explained := model.Explain()
	if !strings.Contains(explained, "shape of") {
		t.Errorf("Explain missing sketches:\n%s", explained)
	}
	if !strings.Contains(model.TreeText(), "split on") {
		t.Error("TreeText missing structure")
	}
}

func TestTreeStats(t *testing.T) {
	train := spikySeries("train", 300, []int{60, 150}, 10)
	model, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := model.TreeStats()
	if st.Splits == 0 || st.AnomalyLeaves == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPredictWindowDirectly(t *testing.T) {
	train := spikySeries("train", 300, []int{60}, 11)
	model, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := ObservationsOf(train, model.Opts)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, o := range obs {
		if model.Predict(o.Labels) == model.Rule().Detect(o.Labels) {
			agree++
		}
	}
	if agree != len(obs) {
		t.Errorf("tree and rule disagree on %d/%d windows", len(obs)-agree, len(obs))
	}
}

func TestObservationsOfValidation(t *testing.T) {
	s := spikySeries("s", 100, []int{50}, 12)
	if _, err := ObservationsOf(s, Options{Omega: 0, Delta: 2}); err == nil {
		t.Error("invalid options accepted")
	}
	obs, err := ObservationsOf(s, Options{Omega: 3, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 100-2-3+1 {
		t.Errorf("got %d observations", len(obs))
	}
}

func TestEnsureNormalizedPassThrough(t *testing.T) {
	in := NewSeries("n", []float64{0, 0.5, 1})
	got, err := ensureNormalized(in)
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Error("in-range series should pass through unchanged")
	}
	out, err := ensureNormalized(NewSeries("m", []float64{-5, 5, 15}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Values[0] != 0 || out.Values[2] != 1 {
		t.Errorf("normalization wrong: %v", out.Values)
	}
	if _, err := ensureNormalized(NewSeries("e", nil)); err == nil {
		t.Error("empty series accepted")
	}
}

func TestOptimizeFindsWorkingConfiguration(t *testing.T) {
	train := spikySeries("train", 400, []int{50, 120, 200, 310}, 13)
	val := spikySeries("val", 300, []int{80, 190}, 14)
	res, err := Optimize([]*Series{train}, []*Series{val}, ObjectiveF1, OptimizeOptions{
		OmegaMax: 9, DeltaMax: 4, InitPoints: 4, Iterations: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore < 0.8 {
		t.Errorf("best validation F1 = %v", res.BestScore)
	}
	if res.Best.Omega < 3 || res.Best.Omega > 9 || res.Best.Delta < 1 || res.Best.Delta > 4 {
		t.Errorf("best config out of bounds: %+v", res.Best)
	}
	if res.Evaluations == 0 || len(res.History) != res.Evaluations {
		t.Errorf("history inconsistent: %d vs %d", len(res.History), res.Evaluations)
	}
}

func TestOptimizeFHPrefersInterpretableConfigs(t *testing.T) {
	train := spikySeries("train", 400, []int{50, 120, 200, 310}, 15)
	val := spikySeries("val", 300, []int{80, 190}, 16)
	res, err := Optimize([]*Series{train}, []*Series{val}, ObjectiveFH, OptimizeOptions{
		OmegaMax: 9, DeltaMax: 6, InitPoints: 4, Iterations: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore <= 0 {
		t.Errorf("best F(h) = %v", res.BestScore)
	}
	// Table 2's observation: F(h) favors small δ.
	if res.Best.Delta > 4 {
		t.Logf("note: F(h) chose delta %d (paper expects small deltas)", res.Best.Delta)
	}
}

func TestOptimizeValidation(t *testing.T) {
	s := spikySeries("s", 100, []int{50}, 17)
	if _, err := Optimize(nil, []*Series{s}, ObjectiveF1, OptimizeOptions{}); err == nil {
		t.Error("missing train accepted")
	}
	if _, err := Optimize([]*Series{s}, nil, ObjectiveF1, OptimizeOptions{}); err == nil {
		t.Error("missing validation accepted")
	}
	if _, err := Optimize([]*Series{s}, []*Series{s}, ObjectiveF1, OptimizeOptions{OmegaMin: 10, OmegaMax: 5}); err == nil {
		t.Error("inverted bounds accepted")
	}
	// δ past the int8 intervals is refused before any candidate trains.
	_, err := Optimize([]*Series{s}, []*Series{s}, ObjectiveF1, OptimizeOptions{DeltaMax: 128})
	if want := "cdt: delta bound 128, want <= 127"; err == nil || err.Error() != want {
		t.Errorf("DeltaMax 128: error %v, want %q", err, want)
	}
	if _, err := Fit([]*Series{s}, Options{Omega: 5, Delta: 200}); err == nil {
		t.Error("Fit accepted delta 200")
	}
}

func TestObjectiveString(t *testing.T) {
	if ObjectiveF1.String() != "F1" || ObjectiveFH.String() != "F(h)" {
		t.Error("objective names wrong")
	}
}

func TestEvaluateValidation(t *testing.T) {
	train := spikySeries("train", 200, []int{60}, 18)
	model, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Evaluate(nil); err == nil {
		t.Error("empty evaluation accepted")
	}
}

// multiMagnitudeSeries plants spikes of varying magnitude so exact
// magnitude rules cannot cover all of them.
func multiMagnitudeSeries(name string, n int, seed int64, spikes map[int]float64) *Series {
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	anoms := make([]bool, n)
	for i := range values {
		values[i] = 50 + 5*math.Sin(float64(i)/5) + rng.Float64()
	}
	for at, v := range spikes {
		values[at] = v
		anoms[at] = true
	}
	return NewLabeledSeries(name, values, anoms)
}

func TestGeneralizeImprovesTransfer(t *testing.T) {
	train := multiMagnitudeSeries("train", 400, 31, map[int]float64{
		60: 200, 150: 200, 250: 200, 340: 200,
	})
	reference := multiMagnitudeSeries("ref", 400, 32, map[int]float64{
		70: 200, 160: 150, 260: 120, 330: 180,
	})
	model, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 8})
	if err != nil {
		t.Fatal(err)
	}
	general, err := model.Generalize([]*Series{reference})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := ObservationsOf(reference, model.Opts)
	if err != nil {
		t.Fatal(err)
	}
	exactHits, generalHits := 0, 0
	for _, o := range obs {
		if model.Rule().Detect(o.Labels) {
			exactHits++
		}
		if general.Detect(o.Labels) {
			generalHits++
		}
	}
	if generalHits < exactHits {
		t.Errorf("generalization lost detections: %d -> %d", exactHits, generalHits)
	}
	if model.GeneralRuleText(general) == "" {
		t.Error("no text rendered")
	}
}

func TestPruneRedundantDropsOnly(t *testing.T) {
	train := spikySeries("train", 400, []int{50, 120, 200, 310}, 33)
	model, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := model.PruneRedundant([]*Series{train})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Count() > model.NumRules() {
		t.Error("pruning grew the rule set")
	}
	// Pruning against the training data itself must keep at least one
	// predicate (the training anomalies are detected by construction).
	if pruned.Count() == 0 {
		t.Error("pruning removed everything")
	}
	if _, err := model.PruneRedundant(nil); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := model.Generalize(nil); err == nil {
		t.Error("empty reference accepted by Generalize")
	}
}

func TestAuditPerRuleStatistics(t *testing.T) {
	train := spikySeries("train", 400, []int{50, 120, 200, 310}, 61)
	model, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := model.Audit([]*Series{train})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != model.NumRules() {
		t.Fatalf("got %d stats for %d rules", len(stats), model.NumRules())
	}
	totalSupport := 0
	for i, st := range stats {
		if st.Index != i+1 {
			t.Errorf("stat %d has index %d", i, st.Index)
		}
		if st.Text == "" {
			t.Error("empty rule text")
		}
		if st.Interpretability <= 0 || st.Interpretability > 1 {
			t.Errorf("rule %d interpretability %v", st.Index, st.Interpretability)
		}
		if p := st.Precision(); p < 0 || p > 1 {
			t.Errorf("rule %d precision %v", st.Index, p)
		}
		totalSupport += st.Support
	}
	// Total support equals the model's TP count on the same data.
	rep, err := model.Evaluate([]*Series{train})
	if err != nil {
		t.Fatal(err)
	}
	if totalSupport != rep.Confusion.TP {
		t.Errorf("supports sum %d != TP %d", totalSupport, rep.Confusion.TP)
	}
	if _, err := model.Audit(nil); err == nil {
		t.Error("empty audit accepted")
	}
}

func TestRuleStatPrecisionZeroWhenSilent(t *testing.T) {
	st := RuleStat{}
	if st.Precision() != 0 {
		t.Error("silent rule precision should be 0")
	}
}

func TestMaxDepthAndMinGainOptions(t *testing.T) {
	train := spikySeries("train", 400, []int{50, 120, 200, 310}, 71)
	shallow, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2, MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := shallow.TreeStats(); st.MaxDepth > 1 {
		t.Errorf("depth %d exceeds facade cap", st.MaxDepth)
	}
	strict, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2, MinGain: 0.49})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Fit([]*Series{train}, Options{Omega: 5, Delta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if strict.TreeStats().Splits > loose.TreeStats().Splits {
		t.Error("MinGain did not restrict splitting")
	}
}

// TestNonFiniteReadingsAreRejected: a NaN or infinite reading, or a
// range too wide to normalize, is an error on every path that
// normalizes a series, never a silently clean or garbage result.
func TestNonFiniteReadingsAreRejected(t *testing.T) {
	train := spikySeries("train", 400, []int{50, 120, 200, 310}, 1)
	opts := Options{Omega: 5, Delta: 2}
	model, err := Fit([]*Series{train}, opts)
	if err != nil {
		t.Fatal(err)
	}
	pyr, err := FitPyramid([]*Series{train}, opts, PyramidConfig{Factors: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	paths := []struct {
		name string
		run  func(s *Series) error
	}{
		{"Model.DetectExplained", func(s *Series) error { _, err := model.DetectExplained(ctx, s); return err }},
		{"Model.ScoreRanges", func(s *Series) error { _, err := model.ScoreRanges(ctx, s); return err }},
		{"PyramidModel.DetectExplained", func(s *Series) error { _, err := pyr.DetectExplained(ctx, s); return err }},
		{"Fit", func(s *Series) error { _, err := Fit([]*Series{s}, opts); return err }},
	}
	for _, tc := range []struct {
		name string
		edit func(v []float64)
	}{
		{"clean", func([]float64) {}},
		{"NaN first", func(v []float64) { v[0] = math.NaN() }},
		{"NaN in the middle", func(v []float64) { v[100] = math.NaN() }},
		{"+Inf", func(v []float64) { v[100] = math.Inf(1) }},
		{"-Inf", func(v []float64) { v[100] = math.Inf(-1) }},
		{"1e308 and -1e308", func(v []float64) { v[100], v[101] = 1e308, -1e308 }},
	} {
		for _, p := range paths {
			s := spikySeries("probe", 300, []int{80, 170, 240}, 2)
			tc.edit(s.Values)
			err := p.run(s)
			if tc.name == "clean" && err != nil {
				t.Errorf("%s on a clean series: %v", p.name, err)
			}
			if tc.name != "clean" && err == nil {
				t.Errorf("%s: %s accepted the series", tc.name, p.name)
			}
		}
	}
}

// TestLabeledSeriesMatchesNormalize: labeledSeries labels a series as
// labeling its normalized copy does — the series itself when it lies in
// [0,1], otherwise a Clone with Normalize applied — for series inside
// and outside [0,1], constant ones on either side, and negative ranges;
// and ensureNormalized's copy holds Normalize's exact values.
func TestLabeledSeriesMatchesNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	cases := [][]float64{
		{0, 0.5, 1, 0.25, 0.75},
		{0.2, 0.2, 0.2, 0.2},
		{7, 7, 7, 7, 7},
		{-7, -7, -7},
		{-5, 5, 15, 5, -5},
		{-3e-3, -1e-3, -2e-3, -1e-3, -4e-3},
		{-1e300, 1e300, 0, -1e300},
		{0.5, 1.5, 0.5, 1.5},
	}
	for range 50 {
		values := make([]float64, 3+rng.Intn(300))
		lo, width := 200*rng.Float64()-100, math.Pow(10, float64(rng.Intn(9)-4))
		for i := range values {
			if i > 0 && rng.Intn(4) == 0 {
				values[i] = values[i-1]
			} else {
				values[i] = lo + width*rng.Float64()
			}
		}
		cases = append(cases, values)
	}
	for _, delta := range []int{1, 2, 3, 7} {
		pcfg := pattern.NewConfig(delta)
		for _, values := range cases {
			s := NewSeries("s", values)
			ref := s
			if min, max, err := s.MinMax(); err != nil {
				t.Fatal(err)
			} else if min < 0 || max > 1 {
				ref = s.Clone()
				if _, err := ref.Normalize(); err != nil {
					t.Fatal(err)
				}
			}
			want, err := pcfg.LabelSeries(ref.Values)
			if err != nil {
				t.Fatal(err)
			}
			got, err := labeledSeries(nil, s, pcfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("delta=%d: labeledSeries(%v) = %v, want %v", delta, values, got, want)
			}
			ns, err := ensureNormalized(s)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range ns.Values {
				if math.Float64bits(v) != math.Float64bits(ref.Values[i]) {
					t.Fatalf("ensureNormalized(%v)[%d] = %v, Normalize gives %v", values, i, v, ref.Values[i])
				}
			}
		}
	}
}
