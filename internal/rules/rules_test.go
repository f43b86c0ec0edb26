package rules

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cdt/internal/core"
	"cdt/internal/pattern"
)

var cfg2 = pattern.NewConfig(2)

func lbl(v pattern.Variation, a, b int) pattern.Label {
	return pattern.Label{Var: v, Alpha: pattern.Interval(a), Beta: pattern.Interval(b)}
}

func comp(labels ...pattern.Label) core.Composition {
	return core.Composition{Labels: labels}
}

var (
	la = lbl(pattern.PP, 1, 2)
	lb = lbl(pattern.PN, -2, -1)
	lc = lbl(pattern.SCP, 1, 0)
	ld = lbl(pattern.ECN, 0, 2)
)

func pos(c core.Composition) Literal { return Literal{Comp: c} }
func neg(c core.Composition) Literal { return Literal{Comp: c, Neg: true} }

// TestSimplifyPaperExample reproduces the worked example of §3.4:
// (c1) ∨ (c2∧¬c1) ∨ (c3∧¬c2∧¬c1) = c1 ∨ c2 ∨ c3.
func TestSimplifyPaperExample(t *testing.T) {
	c1 := comp(lb, lc)
	c2 := comp(ld, la)
	c3 := comp(la, lb)
	r := Rule{Predicates: []Predicate{
		{Literals: []Literal{pos(c1)}},
		{Literals: []Literal{pos(c2), neg(c1)}},
		{Literals: []Literal{pos(c3), neg(c2), neg(c1)}},
	}}
	s := Simplify(r)
	if len(s.Predicates) != 3 {
		t.Fatalf("got %d predicates, want 3:\n%s", len(s.Predicates), s.Format(cfg2))
	}
	for i, p := range s.Predicates {
		if len(p.Literals) != 1 || p.Literals[0].Neg {
			t.Errorf("predicate %d not reduced to a single positive composition: %s", i, p.Format(cfg2))
		}
	}
}

func TestSimplifyAbsorption(t *testing.T) {
	c1 := comp(la)
	c2 := comp(lb)
	r := Rule{Predicates: []Predicate{
		{Literals: []Literal{pos(c1)}},
		{Literals: []Literal{pos(c1), pos(c2)}}, // implied by the first
	}}
	s := Simplify(r)
	if len(s.Predicates) != 1 {
		t.Fatalf("got %d predicates, want 1", len(s.Predicates))
	}
}

func TestSimplifyContradiction(t *testing.T) {
	c1 := comp(la)
	r := Rule{Predicates: []Predicate{
		{Literals: []Literal{pos(c1), neg(c1)}},
	}}
	s := Simplify(r)
	if len(s.Predicates) != 0 {
		t.Fatalf("contradictory predicate survived: %s", s.Format(cfg2))
	}
}

func TestSimplifyDuplicatePredicates(t *testing.T) {
	c1 := comp(la, lb)
	r := Rule{Predicates: []Predicate{
		{Literals: []Literal{pos(c1)}},
		{Literals: []Literal{pos(c1)}},
	}}
	if s := Simplify(r); len(s.Predicates) != 1 {
		t.Fatalf("duplicate predicates survived: %d", len(s.Predicates))
	}
}

func TestSimplifyDuplicateLiterals(t *testing.T) {
	c1 := comp(la)
	r := Rule{Predicates: []Predicate{
		{Literals: []Literal{pos(c1), pos(c1)}},
	}}
	s := Simplify(r)
	if len(s.Predicates) != 1 || len(s.Predicates[0].Literals) != 1 {
		t.Fatalf("idempotence not applied: %s", s.Format(cfg2))
	}
}

func TestSimplifyGeneralNegationElimination(t *testing.T) {
	// P = a∧x, Q = a∧b∧¬x with {a} ⊆ {a,b}: ¬x must vanish from Q.
	a, b, x := comp(la), comp(lb), comp(lc)
	r := Rule{Predicates: []Predicate{
		{Literals: []Literal{pos(a), pos(x)}},
		{Literals: []Literal{pos(a), pos(b), neg(x)}},
	}}
	s := Simplify(r)
	if len(s.Predicates) != 2 {
		t.Fatalf("got %d predicates, want 2", len(s.Predicates))
	}
	for _, p := range s.Predicates {
		for _, lit := range p.Literals {
			if lit.Neg {
				t.Fatalf("negation survived: %s", s.Format(cfg2))
			}
		}
	}
}

func TestSimplifyKeepsNecessaryNegation(t *testing.T) {
	// P = a∧x, Q = b∧¬x with {a} ⊄ {b}: rewrite does not apply.
	a, b, x := comp(la), comp(lb), comp(lc)
	r := Rule{Predicates: []Predicate{
		{Literals: []Literal{pos(a), pos(x)}},
		{Literals: []Literal{pos(b), neg(x)}},
	}}
	s := Simplify(r)
	found := false
	for _, p := range s.Predicates {
		for _, lit := range p.Literals {
			if lit.Neg {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("necessary negation removed: %s", s.Format(cfg2))
	}
}

// Semantic equivalence: simplification must never change what the rule
// detects. Exhaustively check over random label windows.
func TestSimplifyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := cfg2.Alphabet()
	randComp := func() core.Composition {
		n := rng.Intn(2) + 1
		ls := make([]pattern.Label, n)
		for i := range ls {
			ls[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return core.Composition{Labels: ls}
	}
	for trial := 0; trial < 100; trial++ {
		var r Rule
		nPred := rng.Intn(4) + 1
		for i := 0; i < nPred; i++ {
			var p Predicate
			nLit := rng.Intn(3) + 1
			for j := 0; j < nLit; j++ {
				p.Literals = append(p.Literals, Literal{Comp: randComp(), Neg: rng.Intn(2) == 0})
			}
			r.Predicates = append(r.Predicates, p)
		}
		s := Simplify(r)
		for w := 0; w < 50; w++ {
			window := make([]pattern.Label, rng.Intn(6)+1)
			for i := range window {
				window[i] = alphabet[rng.Intn(len(alphabet))]
			}
			if r.Detect(window) != s.Detect(window) {
				t.Fatalf("semantics changed:\nbefore:\n%s\nafter:\n%s\nwindow %v",
					r.Format(cfg2), s.Format(cfg2), window)
			}
		}
	}
}

// Simplification is idempotent: applying it twice changes nothing.
func TestSimplifyIdempotent(t *testing.T) {
	c1, c2, c3 := comp(la), comp(lb), comp(lc)
	r := Rule{Predicates: []Predicate{
		{Literals: []Literal{pos(c1)}},
		{Literals: []Literal{pos(c2), neg(c1)}},
		{Literals: []Literal{pos(c3), neg(c2), neg(c1)}},
	}}
	once := Simplify(r)
	twice := Simplify(once)
	if once.Format(cfg2) != twice.Format(cfg2) {
		t.Fatalf("not idempotent:\n%s\nvs\n%s", once.Format(cfg2), twice.Format(cfg2))
	}
}

func buildSeparableTree(t *testing.T) (*core.Tree, []core.Observation) {
	t.Helper()
	values := make([]float64, 200)
	anoms := make([]bool, 200)
	for i := range values {
		values[i] = 0.4 + 0.1*math.Sin(float64(i)/3)
	}
	for _, idx := range []int{30, 90, 150} {
		values[idx] = 1
		anoms[idx] = true
	}
	labels, err := cfg2.LabelSeries(values)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := core.Windows(labels, anoms, 5)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.Build(obs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tree, obs
}

func TestFromTreeMatchesTreePredictions(t *testing.T) {
	tree, obs := buildSeparableTree(t)
	r := FromTree(tree, PureAnomalyLeaves)
	if r.Count() == 0 {
		t.Fatal("no predicates extracted")
	}
	for i := range obs {
		want := tree.Predict(obs[i].Labels) == core.Anomaly
		if got := r.Detect(obs[i].Labels); got != want {
			t.Fatalf("obs %d: rule %v, tree %v", i, got, want)
		}
	}
}

func TestSimplifiedStillMatchesTree(t *testing.T) {
	tree, obs := buildSeparableTree(t)
	r := Simplify(FromTree(tree, PureAnomalyLeaves))
	for i := range obs {
		want := tree.Predict(obs[i].Labels) == core.Anomaly
		if got := r.Detect(obs[i].Labels); got != want {
			t.Fatalf("obs %d: simplified rule %v, tree %v", i, got, want)
		}
	}
}

func TestSimplifyShrinksTreeRules(t *testing.T) {
	tree, _ := buildSeparableTree(t)
	raw := FromTree(tree, PureAnomalyLeaves)
	simplified := Simplify(raw)
	rawLits, simpLits := 0, 0
	for _, p := range raw.Predicates {
		rawLits += len(p.Literals)
	}
	for _, p := range simplified.Predicates {
		simpLits += len(p.Literals)
	}
	if simpLits > rawLits {
		t.Errorf("simplification grew the rule: %d -> %d literals", rawLits, simpLits)
	}
	if len(simplified.Predicates) > len(raw.Predicates) {
		t.Errorf("simplification grew predicate count: %d -> %d", len(raw.Predicates), len(simplified.Predicates))
	}
}

func TestLeafPolicies(t *testing.T) {
	tree, _ := buildSeparableTree(t)
	pure := FromTree(tree, PureAnomalyLeaves)
	majority := FromTree(tree, MajorityAnomalyLeaves)
	if len(majority.Predicates) < len(pure.Predicates) {
		t.Error("majority policy extracted fewer predicates than pure policy")
	}
}

func TestPredicateMatchesNegation(t *testing.T) {
	c1 := comp(la, lb)
	p := Predicate{Literals: []Literal{neg(c1)}}
	if p.Matches([]pattern.Label{la, lb, lc}, core.MatchContiguous) {
		t.Error("negated literal matched a window containing the composition")
	}
	if !p.Matches([]pattern.Label{lc, lc}, core.MatchContiguous) {
		t.Error("negated literal failed on a window without the composition")
	}
}

func TestEmptyPredicateMatchesEverything(t *testing.T) {
	p := Predicate{}
	if !p.Matches([]pattern.Label{la}, core.MatchContiguous) {
		t.Error("empty conjunction should be TRUE")
	}
	if p.Format(cfg2) != "TRUE" {
		t.Errorf("Format = %q", p.Format(cfg2))
	}
}

func TestRuleFormat(t *testing.T) {
	r := Rule{Predicates: []Predicate{
		{Literals: []Literal{pos(comp(lb, lc)), neg(comp(la))}},
	}}
	out := r.Format(cfg2)
	for _, want := range []string{"R1:", "IF", "PN[-H,-L]", "SCP[L,Z]", "AND NOT", "THEN anomaly"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	empty := Rule{}
	if !strings.Contains(empty.Format(cfg2), "no anomaly rules") {
		t.Error("empty rule format wrong")
	}
}

func TestDetectAll(t *testing.T) {
	r := Rule{Predicates: []Predicate{{Literals: []Literal{pos(comp(la))}}}}
	obs := []core.Observation{
		{Labels: []pattern.Label{la, lb}},
		{Labels: []pattern.Label{lb, lc}},
	}
	got := r.DetectAll(obs)
	if !got[0] || got[1] {
		t.Errorf("DetectAll = %v", got)
	}
}

func TestPositiveCompositions(t *testing.T) {
	p := Predicate{Literals: []Literal{pos(comp(la)), neg(comp(lb)), pos(comp(lc))}}
	if got := len(p.PositiveCompositions()); got != 2 {
		t.Errorf("PositiveCompositions = %d, want 2", got)
	}
	if got := len(p.Compositions()); got != 3 {
		t.Errorf("Compositions = %d, want 3", got)
	}
}

func TestLiteralKeyPolarity(t *testing.T) {
	c := comp(la)
	if pos(c).Key() == neg(c).Key() {
		t.Error("polarities share a key")
	}
}

func TestLeafPolicyString(t *testing.T) {
	if PureAnomalyLeaves.String() != "pure-anomaly" || MajorityAnomalyLeaves.String() != "majority-anomaly" {
		t.Error("policy names wrong")
	}
}
