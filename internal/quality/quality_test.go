package quality

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"cdt/internal/core"
	"cdt/internal/engine"
	"cdt/internal/pattern"
	"cdt/internal/rules"
)

var cfg2 = pattern.NewConfig(2)

func lbl(v pattern.Variation, a, b int) pattern.Label {
	return pattern.Label{Var: v, Alpha: pattern.Interval(a), Beta: pattern.Interval(b)}
}

var (
	la = lbl(pattern.PP, 1, 2)
	lb = lbl(pattern.PN, -2, -1)
	lc = lbl(pattern.SCP, 1, 0)
)

func comp(labels ...pattern.Label) core.Composition {
	return core.Composition{Labels: labels}
}

func TestInterpretabilityFormula(t *testing.T) {
	// I(c) = 1 − (L_c · N_L)/(ω · MaxL); for c of length 2 with 2 unique
	// labels, ω=10, MaxL=25: I = 1 − 4/250.
	c := comp(la, lb)
	got := Interpretability(c, 10, 25)
	want := 1 - 4.0/250
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("I(c) = %v, want %v", got, want)
	}
}

func TestInterpretabilityRepeatedLabels(t *testing.T) {
	// Repeated labels reduce N_L, improving interpretability.
	same := comp(la, la, la)
	varied := comp(la, lb, lc)
	if Interpretability(same, 10, 25) <= Interpretability(varied, 10, 25) {
		t.Error("repeated-label composition should score higher")
	}
}

func TestInterpretabilityShorterIsBetter(t *testing.T) {
	short := comp(la)
	long := comp(la, lb, lc)
	if Interpretability(short, 10, 25) <= Interpretability(long, 10, 25) {
		t.Error("shorter composition should score higher")
	}
}

func TestInterpretabilityDegenerate(t *testing.T) {
	if Interpretability(comp(la), 0, 25) != 0 {
		t.Error("omega 0 should give 0")
	}
	if Interpretability(comp(la), 10, 0) != 0 {
		t.Error("maxLabels 0 should give 0")
	}
}

func TestInterpretabilityBoundsProperty(t *testing.T) {
	alphabet := cfg2.Alphabet()
	f := func(lenRaw, omegaRaw uint8) bool {
		n := int(lenRaw%10) + 1
		omega := int(omegaRaw%31) + 1
		labels := make([]pattern.Label, n)
		for i := range labels {
			labels[i] = alphabet[(int(lenRaw)+i*7)%len(alphabet)]
		}
		v := Interpretability(core.Composition{Labels: labels}, omega, cfg2.AlphabetSize())
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPredicateQualityAveraging(t *testing.T) {
	p := rules.Predicate{Literals: []rules.Literal{
		{Comp: comp(la)},
		{Comp: comp(la, lb), Neg: true},
	}}
	want := (Interpretability(comp(la), 10, 25) + Interpretability(comp(la, lb), 10, 25)) / 2
	if got := PredicateQuality(p, 10, 25); math.Abs(got-want) > 1e-12 {
		t.Errorf("M = %v, want %v", got, want)
	}
	if PredicateQuality(rules.Predicate{}, 10, 25) != 0 {
		t.Error("empty predicate should have quality 0")
	}
}

func makeObs(labels [][]pattern.Label, classes []core.Class) []core.Observation {
	obs := make([]core.Observation, len(labels))
	for i := range labels {
		obs[i] = core.Observation{Labels: labels[i], Class: classes[i]}
	}
	return obs
}

// sweep compiles the rule's engine and sweeps each ω-long observation
// as a run of its own, so mark i belongs to obs[i] — the marks every
// Evaluate caller provides.
func sweep(r rules.Rule, obs []core.Observation, omega int) *engine.Marks {
	runs := make([][]pattern.Label, len(obs))
	for i := range obs {
		runs[i] = obs[i].Labels
	}
	return engine.Compile(r, omega).Sweep(runs...)
}

func TestEvaluatePerfectRule(t *testing.T) {
	// Rule: [la] → anomaly. Obs: two anomalous with la, two normal without.
	r := rules.Rule{Predicates: []rules.Predicate{
		{Literals: []rules.Literal{{Comp: comp(la)}}},
	}}
	obs := makeObs(
		[][]pattern.Label{{la, lb}, {lc, la}, {lb, lc}, {lc, lb}},
		[]core.Class{core.Anomaly, core.Anomaly, core.Normal, core.Normal},
	)
	rep := Evaluate(r, obs, sweep(r, obs, 2), 2, 25)
	if rep.F1() != 1 {
		t.Errorf("F1 = %v, want 1", rep.F1())
	}
	if rep.PredicateSupports[0] != 2 {
		t.Errorf("support = %d, want 2", rep.PredicateSupports[0])
	}
	// Q = (1/S)·ΣS_Rs·M = (2·M)/4 where S = TP+TN = 4.
	wantQ := 2 * rep.PredicateQualities[0] / 4
	if math.Abs(rep.Q-wantQ) > 1e-12 {
		t.Errorf("Q = %v, want %v", rep.Q, wantQ)
	}
	if math.Abs(rep.Objective()-rep.F1()*rep.Q) > 1e-12 {
		t.Error("objective != F1*Q")
	}
}

func TestEvaluateAttributesToFirstMatch(t *testing.T) {
	r := rules.Rule{Predicates: []rules.Predicate{
		{Literals: []rules.Literal{{Comp: comp(la)}}},
		{Literals: []rules.Literal{{Comp: comp(lb)}}},
	}}
	// One anomalous observation matching both predicates.
	obs := makeObs(
		[][]pattern.Label{{la, lb}},
		[]core.Class{core.Anomaly},
	)
	rep := Evaluate(r, obs, sweep(r, obs, 2), 2, 25)
	if rep.PredicateSupports[0] != 1 || rep.PredicateSupports[1] != 0 {
		t.Errorf("supports = %v, want [1 0]", rep.PredicateSupports)
	}
}

// TestEvaluateCreditsNoShadowedOrIdlePredicate: a predicate earns
// support only from the anomalous windows it matches first. The second
// predicate here matches only where the first does, and the third only
// a normal window, so both stay at zero support, which is what
// Model.PruneRedundant drops on.
func TestEvaluateCreditsNoShadowedOrIdlePredicate(t *testing.T) {
	r := rules.Rule{Predicates: []rules.Predicate{
		{Literals: []rules.Literal{{Comp: comp(la)}}},
		{Literals: []rules.Literal{{Comp: comp(la)}, {Comp: comp(lb)}}},
		{Literals: []rules.Literal{{Comp: comp(lc)}}},
	}}
	obs := makeObs(
		[][]pattern.Label{{la, lb}, {lc, lc}},
		[]core.Class{core.Anomaly, core.Normal},
	)
	rep := Evaluate(r, obs, sweep(r, obs, 2), 2, 25)
	if want := []int{1, 0, 0}; !slices.Equal(rep.PredicateSupports, want) {
		t.Errorf("supports = %v, want %v", rep.PredicateSupports, want)
	}
	if rep.Confusion.TP != 1 || rep.Confusion.FP != 1 {
		t.Errorf("confusion = %+v, want one true and one false positive", rep.Confusion)
	}
}

func TestEvaluateNoCorrectClassifications(t *testing.T) {
	r := rules.Rule{Predicates: []rules.Predicate{
		{Literals: []rules.Literal{{Comp: comp(la)}}},
	}}
	// Rule matches the normal obs and misses the anomalous one: S = 0.
	obs := makeObs(
		[][]pattern.Label{{la}, {lb}},
		[]core.Class{core.Normal, core.Anomaly},
	)
	rep := Evaluate(r, obs, sweep(r, obs, 1), 1, 25)
	if rep.Q != 0 {
		t.Errorf("Q = %v, want 0", rep.Q)
	}
	if rep.F1() != 0 {
		t.Errorf("F1 = %v, want 0", rep.F1())
	}
}

func TestEvaluateQBounds(t *testing.T) {
	// Q is a support-weighted mean of [0,1] qualities divided by S >= ΣS_Rs,
	// so Q ∈ [0,1].
	r := rules.Rule{Predicates: []rules.Predicate{
		{Literals: []rules.Literal{{Comp: comp(la)}}},
		{Literals: []rules.Literal{{Comp: comp(lb, lc)}}},
	}}
	obs := makeObs(
		[][]pattern.Label{{la, lb}, {lb, lc}, {lc, la}, {lb, la}},
		[]core.Class{core.Anomaly, core.Anomaly, core.Normal, core.Anomaly},
	)
	rep := Evaluate(r, obs, sweep(r, obs, 2), 2, 25)
	if rep.Q < 0 || rep.Q > 1 {
		t.Errorf("Q = %v out of [0,1]", rep.Q)
	}
}
