package rules

import (
	"math/rand"
	"strings"
	"testing"

	"cdt/internal/core"
	"cdt/internal/pattern"
)

func TestMagnitudeRange(t *testing.T) {
	r := MagnitudeRange{Min: 1, Max: 3}
	if !r.Contains(2) || r.Contains(4) || r.Contains(0) {
		t.Error("containment wrong")
	}
	if r.Exact() {
		t.Error("wide range reported exact")
	}
	if !(MagnitudeRange{Min: 2, Max: 2}).Exact() {
		t.Error("pinned range not exact")
	}
}

func TestMagnitudeRangeNames(t *testing.T) {
	if (MagnitudeRange{Min: 1, Max: 2}).name(2) != "+" {
		t.Error("positive wide name")
	}
	if (MagnitudeRange{Min: -2, Max: -1}).name(2) != "-" {
		t.Error("negative wide name")
	}
	if (MagnitudeRange{Min: 2, Max: 2}).name(2) != "H" {
		t.Error("exact name")
	}
}

func TestGeneralLabelMatches(t *testing.T) {
	g := GeneralLabel{Var: pattern.PP, Alpha: MagnitudeRange{Min: 1, Max: 2}, Beta: MagnitudeRange{Min: 1, Max: 2}}
	if !g.Matches(lbl(pattern.PP, 1, 2)) {
		t.Error("in-range label rejected")
	}
	if g.Matches(lbl(pattern.PN, -1, -1)) {
		t.Error("wrong variation matched")
	}
}

func TestGeneralCompositionMatching(t *testing.T) {
	anyPP := GeneralComposition{{Var: pattern.PP, Alpha: MagnitudeRange{Min: 1, Max: 2}, Beta: MagnitudeRange{Min: 1, Max: 2}}}
	window := []pattern.Label{lbl(pattern.CST, 0, 0), lbl(pattern.PP, 2, 1)}
	if !anyPP.MatchedBy(window, core.MatchContiguous) {
		t.Error("generalized PP not found")
	}
	if anyPP.MatchedBy([]pattern.Label{lbl(pattern.PN, -1, -1)}, core.MatchContiguous) {
		t.Error("false match")
	}
	// Gapped mode.
	two := GeneralComposition{
		{Var: pattern.PP, Alpha: MagnitudeRange{Min: 1, Max: 2}, Beta: MagnitudeRange{Min: 1, Max: 2}},
		{Var: pattern.PN, Alpha: MagnitudeRange{Min: -2, Max: -1}, Beta: MagnitudeRange{Min: -2, Max: -1}},
	}
	gapped := []pattern.Label{lbl(pattern.PP, 1, 1), lbl(pattern.CST, 0, 0), lbl(pattern.PN, -2, -2)}
	if two.MatchedBy(gapped, core.MatchContiguous) {
		t.Error("contiguous matched across a gap")
	}
	if !two.MatchedBy(gapped, core.MatchSubsequence) {
		t.Error("subsequence missed the gapped occurrence")
	}
	if !(GeneralComposition{}).MatchedBy(nil, core.MatchContiguous) {
		t.Error("empty composition should match")
	}
}

func TestLiftRulePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := cfg2.Alphabet()
	randComp := func() core.Composition {
		n := rng.Intn(2) + 1
		ls := make([]pattern.Label, n)
		for i := range ls {
			ls[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return core.Composition{Labels: ls}
	}
	for trial := 0; trial < 50; trial++ {
		var r Rule
		for p := 0; p < rng.Intn(3)+1; p++ {
			var pred Predicate
			for l := 0; l < rng.Intn(3)+1; l++ {
				pred.Literals = append(pred.Literals, Literal{Comp: randComp(), Neg: rng.Intn(3) == 0})
			}
			r.Predicates = append(r.Predicates, pred)
		}
		g := liftRule(r)
		for w := 0; w < 30; w++ {
			window := make([]pattern.Label, rng.Intn(5)+1)
			for i := range window {
				window[i] = alphabet[rng.Intn(len(alphabet))]
			}
			if r.Detect(window) != g.Detect(window) {
				t.Fatalf("lift changed semantics on %v", window)
			}
		}
	}
}

// buildNoisyMagnitudeData creates observations where anomalies are
// positive peaks of VARIED magnitudes; an exact-magnitude rule can only
// catch the training magnitude, the generalized rule catches all.
func buildNoisyMagnitudeData() (train, reference []core.Observation) {
	mk := func(alpha, beta pattern.Interval, cls core.Class) core.Observation {
		labels := []pattern.Label{
			lbl(pattern.VP, 1, -1),
			{Var: pattern.PP, Alpha: alpha, Beta: beta},
			lbl(pattern.VN, -1, 1),
		}
		return core.Observation{Labels: labels, Class: cls}
	}
	normal := core.Observation{Labels: []pattern.Label{
		lbl(pattern.VP, 1, -1), lbl(pattern.VN, -1, 1), lbl(pattern.VP, 1, -1),
	}, Class: core.Normal}
	train = []core.Observation{mk(3, 3, core.Anomaly), normal, normal, normal}
	reference = []core.Observation{
		mk(3, 3, core.Anomaly), mk(4, 4, core.Anomaly), mk(2, 3, core.Anomaly),
		normal, normal, normal, normal,
	}
	return train, reference
}

func TestGeneralizeWidensWhenJustified(t *testing.T) {
	train, reference := buildNoisyMagnitudeData()
	tree, err := core.Build(train, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := Simplify(FromTree(tree, PureAnomalyLeaves))
	if exact.Count() == 0 {
		t.Fatal("no rules learned")
	}
	lifted := liftRule(exact)
	general := Generalize(exact, reference, 4)
	if general.F1(reference) < lifted.F1(reference) {
		t.Errorf("generalization degraded F1: %.2f -> %.2f", lifted.F1(reference), general.F1(reference))
	}
	// The exact rule misses the unseen magnitudes; the generalized rule
	// must catch them.
	if general.F1(reference) != 1 {
		t.Errorf("generalized F1 = %v, want 1", general.F1(reference))
	}
}

func TestGeneralizeNeverDegradesReferenceF1(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := cfg2.Alphabet()
	for trial := 0; trial < 20; trial++ {
		obs := make([]core.Observation, 40)
		for i := range obs {
			labels := make([]pattern.Label, 5)
			for j := range labels {
				labels[j] = alphabet[rng.Intn(len(alphabet))]
			}
			cls := core.Normal
			if rng.Intn(4) == 0 {
				cls = core.Anomaly
			}
			obs[i] = core.Observation{Labels: labels, Class: cls}
		}
		tree, err := core.Build(obs, core.Options{MaxCompositionLen: 2})
		if err != nil {
			t.Fatal(err)
		}
		exact := Simplify(FromTree(tree, MajorityAnomalyLeaves))
		lifted := liftRule(exact)
		general := Generalize(exact, obs, 2)
		if general.F1(obs)+1e-12 < lifted.F1(obs) {
			t.Fatalf("trial %d: generalization degraded F1 %.3f -> %.3f", trial, lifted.F1(obs), general.F1(obs))
		}
	}
}

func TestGeneralizeEmptyReferenceIsLift(t *testing.T) {
	r := Rule{Predicates: []Predicate{{Literals: []Literal{pos(comp(la))}}}}
	g := Generalize(r, nil, 2)
	if g.Count() != 1 {
		t.Fatal("structure changed")
	}
	if !g.Predicates[0].Positives[0][0].Alpha.Exact() {
		t.Error("widened without evidence")
	}
}

func TestGeneralRuleFormat(t *testing.T) {
	g := GeneralRule{Predicates: []GeneralPredicate{{
		Positives: []GeneralComposition{{
			{Var: pattern.PP, Alpha: MagnitudeRange{Min: 1, Max: 2}, Beta: MagnitudeRange{Min: 2, Max: 2}},
		}},
		Negatives: []core.Composition{comp(lb)},
	}}}
	out := g.Format(cfg2)
	for _, want := range []string{"PP[+,H]", "NOT", "THEN anomaly"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
	if (GeneralRule{}).Format(cfg2) != "(no anomaly rules)" {
		t.Error("empty format wrong")
	}
}

func TestMergeDuplicatePredicates(t *testing.T) {
	p := GeneralPredicate{Positives: []GeneralComposition{{
		{Var: pattern.PP, Alpha: MagnitudeRange{Min: 1, Max: 2}, Beta: MagnitudeRange{Min: 1, Max: 2}},
	}}}
	g := GeneralRule{Predicates: []GeneralPredicate{p, p}}
	if merged := mergeDuplicatePredicates(g); merged.Count() != 1 {
		t.Errorf("got %d predicates", merged.Count())
	}
}

func TestFullRange(t *testing.T) {
	if r := fullRange(2, 4); r.Min != 1 || r.Max != 4 {
		t.Errorf("positive full range = %+v", r)
	}
	if r := fullRange(-1, 4); r.Min != -4 || r.Max != -1 {
		t.Errorf("negative full range = %+v", r)
	}
	if r := fullRange(0, 4); !r.Exact() || r.Min != 0 {
		t.Errorf("zero full range = %+v", r)
	}
}
