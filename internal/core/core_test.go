package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cdt/internal/pattern"
)

var cfg2 = pattern.NewConfig(2)

// mustLabels labels a value series, failing the test on error.
func mustLabels(t *testing.T, values []float64) []pattern.Label {
	t.Helper()
	labels, err := cfg2.LabelSeries(values)
	if err != nil {
		t.Fatal(err)
	}
	return labels
}

func TestWindowsShapeAndClasses(t *testing.T) {
	values := []float64{0, 0.2, 0.4, 0.6, 0.8, 1, 0.8}
	anoms := []bool{false, false, false, true, false, false, false}
	labels := mustLabels(t, values)
	obs, err := Windows(labels, anoms, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != len(labels)-3+1 {
		t.Fatalf("got %d windows, want %d", len(obs), len(labels)-3+1)
	}
	// Window starting at label 0 covers points 1..3 → includes anomaly
	// at point 3.
	if obs[0].Class != Anomaly {
		t.Error("window 0 should be anomalous")
	}
	// Window starting at label 2 covers points 3..5 → anomalous too.
	if obs[2].Class != Anomaly {
		t.Error("window 2 should be anomalous")
	}
}

func TestWindowsUnlabeled(t *testing.T) {
	labels := mustLabels(t, []float64{0, 1, 0, 1, 0})
	obs, err := Windows(labels, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if o.Class != Normal {
			t.Error("unlabeled windows must be Normal")
		}
	}
}

func TestWindowsErrors(t *testing.T) {
	labels := mustLabels(t, []float64{0, 1, 0, 1, 0})
	if _, err := Windows(labels, nil, 0); err == nil {
		t.Error("omega 0 accepted")
	}
	if _, err := Windows(labels, nil, len(labels)+1); err == nil {
		t.Error("oversize omega accepted")
	}
	if _, err := Windows(labels, make([]bool, 2), 2); err == nil {
		t.Error("misaligned anomaly flags accepted")
	}
}

func TestWindowsCountProperty(t *testing.T) {
	f := func(nRaw, omegaRaw uint8) bool {
		n := int(nRaw%100) + 3
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(i % 7)
		}
		labels, err := cfg2.LabelSeries(values)
		if err != nil {
			return false
		}
		omega := int(omegaRaw)%len(labels) + 1
		obs, err := Windows(labels, nil, omega)
		if err != nil {
			return false
		}
		return len(obs) == len(labels)-omega+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func lbl(v pattern.Variation, a, b int) pattern.Label {
	return pattern.Label{Var: v, Alpha: pattern.Interval(a), Beta: pattern.Interval(b)}
}

func TestCompositionMatching(t *testing.T) {
	a := lbl(pattern.PP, 1, 2)
	b := lbl(pattern.PN, -2, -1)
	c := lbl(pattern.CST, 0, 0)
	seq := []pattern.Label{a, b, c, a}
	tests := []struct {
		comp      []pattern.Label
		contig    bool
		subseq    bool
		describes string
	}{
		{[]pattern.Label{a, b}, true, true, "prefix"},
		{[]pattern.Label{b, c, a}, true, true, "suffix"},
		{[]pattern.Label{a, c}, false, true, "gapped"},
		{[]pattern.Label{c, b}, false, false, "wrong order"},
		{[]pattern.Label{a, b, c, a}, true, true, "whole"},
		{[]pattern.Label{a, b, c, a, a}, false, false, "too long"},
		{nil, true, true, "empty"},
	}
	for _, tc := range tests {
		comp := Composition{Labels: tc.comp}
		if got := comp.MatchedBy(seq, MatchContiguous); got != tc.contig {
			t.Errorf("%s: contiguous = %v, want %v", tc.describes, got, tc.contig)
		}
		if got := comp.MatchedBy(seq, MatchSubsequence); got != tc.subseq {
			t.Errorf("%s: subsequence = %v, want %v", tc.describes, got, tc.subseq)
		}
	}
}

// Contiguous matching implies subsequence matching.
func TestMatchingModeImplication(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := cfg2.Alphabet()
	for trial := 0; trial < 200; trial++ {
		seq := make([]pattern.Label, rng.Intn(10)+1)
		for i := range seq {
			seq[i] = alphabet[rng.Intn(len(alphabet))]
		}
		comp := Composition{Labels: make([]pattern.Label, rng.Intn(4)+1)}
		for i := range comp.Labels {
			comp.Labels[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if comp.MatchedBy(seq, MatchContiguous) && !comp.MatchedBy(seq, MatchSubsequence) {
			t.Fatalf("contiguous match without subsequence match: %v in %v", comp, seq)
		}
	}
}

func TestCompositionKeyIdentity(t *testing.T) {
	a := Composition{Labels: []pattern.Label{lbl(pattern.PP, 1, 2), lbl(pattern.PN, -1, -1)}}
	b := Composition{Labels: []pattern.Label{lbl(pattern.PP, 1, 2), lbl(pattern.PN, -1, -1)}}
	c := Composition{Labels: []pattern.Label{lbl(pattern.PN, -1, -1), lbl(pattern.PP, 1, 2)}}
	if a.Key() != b.Key() {
		t.Error("equal compositions have different keys")
	}
	if a.Key() == c.Key() {
		t.Error("different compositions share a key")
	}
}

func TestUniqueLabels(t *testing.T) {
	c := Composition{Labels: []pattern.Label{
		lbl(pattern.PP, 1, 2), lbl(pattern.PP, 1, 2), lbl(pattern.PN, -1, -1),
	}}
	if got := c.UniqueLabels(); got != 2 {
		t.Errorf("UniqueLabels = %d, want 2", got)
	}
	if got := c.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
}

func TestEnumerateCompositionsFromAnomalousOnly(t *testing.T) {
	a := lbl(pattern.PP, 1, 1)
	b := lbl(pattern.PN, -1, -1)
	c := lbl(pattern.CST, 0, 0)
	obs := []Observation{
		{Labels: []pattern.Label{a, b}, Class: Anomaly},
		{Labels: []pattern.Label{c, c}, Class: Normal},
	}
	comps, _ := trieCandidates(poolSupports(obs, Options{}))
	// Distinct substrings of [a b]: [a], [b], [a b].
	if len(comps) != 3 {
		t.Fatalf("got %d candidates, want 3: %v", len(comps), comps)
	}
	for _, comp := range comps {
		for _, l := range comp.Labels {
			if l == c {
				t.Error("candidate drawn from a normal observation")
			}
		}
	}
}

func TestEnumerateCompositionsMaxLen(t *testing.T) {
	a := lbl(pattern.PP, 1, 1)
	b := lbl(pattern.PN, -1, -1)
	c := lbl(pattern.CST, 0, 0)
	obs := []Observation{{Labels: []pattern.Label{a, b, c}, Class: Anomaly}}
	comps, _ := trieCandidates(poolSupports(obs, Options{MaxCompositionLen: 1}))
	if len(comps) != 3 { // [a], [b], [c]
		t.Fatalf("got %d candidates, want 3", len(comps))
	}
	for _, comp := range comps {
		if comp.Len() != 1 {
			t.Errorf("candidate %v exceeds max length", comp)
		}
	}
}

func TestGiniImpurity(t *testing.T) {
	tests := []struct {
		cc   ClassCounts
		want float64
	}{
		{ClassCounts{Normal: 10, Anomaly: 0}, 0},
		{ClassCounts{Normal: 0, Anomaly: 7}, 0},
		{ClassCounts{Normal: 5, Anomaly: 5}, 0.5},
		{ClassCounts{}, 0},
	}
	for _, tc := range tests {
		if got := Gini.Impurity(tc.cc); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Gini(%+v) = %v, want %v", tc.cc, got, tc.want)
		}
	}
}

func TestEntropyImpurity(t *testing.T) {
	if got := Entropy.Impurity(ClassCounts{Normal: 5, Anomaly: 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Entropy(balanced) = %v, want 1", got)
	}
	if got := Entropy.Impurity(ClassCounts{Normal: 5}); got != 0 {
		t.Errorf("Entropy(pure) = %v, want 0", got)
	}
}

func TestInformationGainPerfectSplit(t *testing.T) {
	parent := ClassCounts{Normal: 5, Anomaly: 5}
	in := ClassCounts{Anomaly: 5}
	out := ClassCounts{Normal: 5}
	if got := Gini.InformationGain(parent, in, out); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("IG = %v, want 0.5", got)
	}
}

func TestInformationGainDegenerate(t *testing.T) {
	parent := ClassCounts{Normal: 5, Anomaly: 5}
	if got := Gini.InformationGain(parent, parent, ClassCounts{}); got != 0 {
		t.Errorf("IG with empty side = %v, want 0", got)
	}
}

// Information gain is never negative and never exceeds parent impurity.
func TestInformationGainBoundsProperty(t *testing.T) {
	f := func(na, aa, nb, ab uint8) bool {
		in := ClassCounts{Normal: int(na % 50), Anomaly: int(aa % 50)}
		out := ClassCounts{Normal: int(nb % 50), Anomaly: int(ab % 50)}
		parent := ClassCounts{Normal: in.Normal + out.Normal, Anomaly: in.Anomaly + out.Anomaly}
		for _, crit := range []SplitCriterion{Gini, Entropy} {
			ig := crit.InformationGain(parent, in, out)
			if ig < -1e-12 || ig > crit.Impurity(parent)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// synthSeries builds a value series with spike anomalies at given points.
func synthSeries(n int, anomalyAt []int) ([]float64, []bool) {
	values := make([]float64, n)
	anoms := make([]bool, n)
	for i := range values {
		values[i] = 0.4 + 0.1*math.Sin(float64(i)/3)
	}
	for _, idx := range anomalyAt {
		values[idx] = 1.0
		anoms[idx] = true
	}
	return values, anoms
}

func buildTestTree(t *testing.T, omega int, opts Options) (*Tree, []Observation) {
	t.Helper()
	values, anoms := synthSeries(300, []int{40, 41, 120, 200, 260})
	labels, err := cfg2.LabelSeries(values)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := Windows(labels, anoms, omega)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(obs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tree, obs
}

func TestBuildSeparatesTrainingData(t *testing.T) {
	tree, obs := buildTestTree(t, 5, Options{})
	preds := tree.PredictAll(obs)
	errors := 0
	for i := range obs {
		if preds[i] != obs[i].Class {
			errors++
		}
	}
	// Algorithm 1 splits until purity or zero gain; on this cleanly
	// separable synthetic data it must fit the training set exactly.
	if errors != 0 {
		t.Errorf("%d/%d training errors", errors, len(obs))
	}
}

func TestBuildLeavesAreConsistent(t *testing.T) {
	tree, _ := buildTestTree(t, 5, Options{})
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf() {
			if n.Counts.Total() == 0 {
				t.Error("empty leaf")
			}
			return
		}
		if n.ChildTrue == nil || n.ChildFalse == nil {
			t.Fatal("split node missing children")
		}
		sum := ClassCounts{
			Normal:  n.ChildTrue.Counts.Normal + n.ChildFalse.Counts.Normal,
			Anomaly: n.ChildTrue.Counts.Anomaly + n.ChildFalse.Counts.Anomaly,
		}
		if sum != n.Counts {
			t.Errorf("children counts %+v do not sum to parent %+v", sum, n.Counts)
		}
		if n.ChildTrue.Depth != n.Depth+1 || n.ChildFalse.Depth != n.Depth+1 {
			t.Error("child depth wrong")
		}
		walk(n.ChildTrue)
		walk(n.ChildFalse)
	}
	walk(tree.Root)
}

func TestBuildRespectsMaxDepth(t *testing.T) {
	tree, _ := buildTestTree(t, 5, Options{MaxDepth: 1})
	if st := tree.Stats(); st.MaxDepth > 1 {
		t.Errorf("depth %d exceeds cap", st.MaxDepth)
	}
}

func TestBuildRespectsMaxCompositionLen(t *testing.T) {
	tree, _ := buildTestTree(t, 5, Options{MaxCompositionLen: 1})
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf() {
			return
		}
		if n.Composition.Len() > 1 {
			t.Errorf("composition %v exceeds length cap", n.Composition)
		}
		walk(n.ChildTrue)
		walk(n.ChildFalse)
	}
	walk(tree.Root)
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("empty observations accepted")
	}
	obs := []Observation{
		{Labels: []pattern.Label{lbl(pattern.PP, 1, 1)}},
		{Labels: []pattern.Label{lbl(pattern.PP, 1, 1), lbl(pattern.PN, -1, -1)}},
	}
	if _, err := Build(obs, Options{}); err == nil {
		t.Error("ragged observations accepted")
	}
}

func TestBuildAllNormalGivesSingleLeaf(t *testing.T) {
	labels := mustLabels(t, []float64{0, 0.5, 0.2, 0.7, 0.3, 0.8})
	obs, err := Windows(labels, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(obs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.Leaf() {
		t.Error("pure root was split")
	}
	if tree.Predict(obs[0].Labels) != Normal {
		t.Error("prediction on pure-normal tree")
	}
}

func TestBuildDeterministic(t *testing.T) {
	t1, _ := buildTestTree(t, 5, Options{Parallelism: 1})
	t2, _ := buildTestTree(t, 5, Options{Parallelism: 8})
	if t1.Render(cfg2) != t2.Render(cfg2) {
		t.Error("tree depends on parallelism")
	}
}

func TestEntropyCriterionAlsoSeparates(t *testing.T) {
	tree, obs := buildTestTree(t, 5, Options{Criterion: Entropy})
	for i, c := range tree.PredictAll(obs) {
		if c != obs[i].Class {
			t.Fatalf("entropy tree misclassifies training obs %d", i)
		}
	}
}

func TestStats(t *testing.T) {
	tree, _ := buildTestTree(t, 5, Options{})
	st := tree.Stats()
	if st.Nodes != st.Splits*2+1 {
		t.Errorf("binary tree invariant violated: %+v", st)
	}
	if st.Leaves != st.Splits+1 {
		t.Errorf("leaf count invariant violated: %+v", st)
	}
	if st.AnomalyLeaves == 0 {
		t.Error("no anomaly leaves on separable data")
	}
}

func TestRenderMentionsCompositions(t *testing.T) {
	tree, _ := buildTestTree(t, 5, Options{})
	out := tree.Render(cfg2)
	if out == "" || tree.Root.Leaf() {
		t.Fatal("render empty or tree trivial")
	}
	if !strings.Contains(out, "split on") || !strings.Contains(out, "leaf") {
		t.Errorf("render missing structure:\n%s", out)
	}
}

func TestMajorityTieBreaksToAnomaly(t *testing.T) {
	cc := ClassCounts{Normal: 3, Anomaly: 3}
	if cc.Majority() != Anomaly {
		t.Error("tie should prefer anomaly")
	}
	if (ClassCounts{}).Majority() != Normal {
		t.Error("empty counts should be normal")
	}
}

func TestClassString(t *testing.T) {
	if Normal.String() != "normal" || Anomaly.String() != "anomaly" {
		t.Error("class names wrong")
	}
}

func TestMatchModeString(t *testing.T) {
	if MatchContiguous.String() != "contiguous" || MatchSubsequence.String() != "subsequence" {
		t.Error("mode names wrong")
	}
}

// The candidate trie's one-pass substring support counting must agree
// exactly with direct per-candidate matching on the oracle's candidates.
func TestFastSupportCountingMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	alphabet := cfg2.Alphabet()
	obs := make([]Observation, 60)
	for i := range obs {
		labels := make([]pattern.Label, 8)
		for j := range labels {
			labels[j] = alphabet[rng.Intn(6)] // small alphabet → repeats
		}
		cls := Normal
		if rng.Intn(3) == 0 {
			cls = Anomaly
		}
		obs[i] = Observation{Labels: labels, Class: cls}
	}
	for _, maxLen := range []int{0, 1, 3} {
		candidates := enumerateCompositions(obs, maxLen)
		if len(candidates) == 0 {
			t.Fatal("no candidates")
		}
		opts := Options{MaxCompositionLen: maxLen}
		comps, fast := trieCandidates(poolSupports(obs, opts))
		slow := countSupportsNaive(obs, candidates, opts)
		if len(comps) != len(candidates) {
			t.Fatalf("maxLen=%d: %d trie candidates, oracle %d", maxLen, len(comps), len(candidates))
		}
		for i := range candidates {
			if compareCompositions(comps[i], candidates[i]) != 0 || fast[i] != slow[i] {
				t.Fatalf("maxLen=%d candidate %v: fast %+v, slow %+v",
					maxLen, candidates[i], fast[i], slow[i])
			}
		}
	}
}

// The sliding-run fast path (series-space occurrence counting over
// consecutive windows of one backing array — the shape Windows produces)
// must agree exactly with direct per-candidate matching, including for
// mixed inputs where sliding runs and isolated windows interleave.
func TestSlidingRunSupportCountingMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	alphabet := cfg2.Alphabet()
	seq := make([]pattern.Label, 120)
	for j := range seq {
		seq[j] = alphabet[rng.Intn(6)]
	}
	anoms := make([]bool, len(seq)+2)
	for j := range anoms {
		if rng.Intn(9) == 0 {
			anoms[j] = true
		}
	}
	for _, omega := range []int{2, 5, 9} {
		sliding, err := Windows(seq, anoms, omega)
		if err != nil {
			t.Fatal(err)
		}
		// Mixed input: a sliding run, then isolated copies (fresh backing
		// arrays break adjacency), then the tail of the run.
		mixed := append([]Observation(nil), sliding[:40]...)
		for i := 40; i < 50; i++ {
			mixed = append(mixed, Observation{
				Labels: append([]pattern.Label(nil), sliding[i].Labels...),
				Class:  sliding[i].Class,
			})
		}
		mixed = append(mixed, sliding[50:]...)
		for _, obs := range [][]Observation{sliding, mixed} {
			for _, maxLen := range []int{0, 1, 3} {
				candidates := enumerateCompositions(obs, maxLen)
				if len(candidates) == 0 {
					t.Fatal("no candidates")
				}
				opts := Options{MaxCompositionLen: maxLen}
				comps, fast := trieCandidates(poolSupports(obs, opts))
				slow := countSupportsNaive(obs, candidates, opts)
				if len(comps) != len(candidates) {
					t.Fatalf("omega=%d maxLen=%d: %d trie candidates, oracle %d", omega, maxLen, len(comps), len(candidates))
				}
				for i := range candidates {
					if compareCompositions(comps[i], candidates[i]) != 0 || fast[i] != slow[i] {
						t.Fatalf("omega=%d maxLen=%d candidate %v: fast %+v, slow %+v",
							omega, maxLen, candidates[i], fast[i], slow[i])
					}
				}
			}
		}
	}
}

// The sliding-run partition marker must agree with per-window MatchedBy
// on every candidate, over pure sliding input and mixed (run + isolated
// copies) input alike.
func TestMarkMatchesMatchesMatchedBy(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	alphabet := cfg2.Alphabet()
	seq := make([]pattern.Label, 110)
	for j := range seq {
		seq[j] = alphabet[rng.Intn(5)]
	}
	anoms := make([]bool, len(seq)+2)
	for j := range anoms {
		if rng.Intn(8) == 0 {
			anoms[j] = true
		}
	}
	for _, omega := range []int{2, 4, 7} {
		sliding, err := Windows(seq, anoms, omega)
		if err != nil {
			t.Fatal(err)
		}
		mixed := append([]Observation(nil), sliding[:30]...)
		for i := 30; i < 38; i++ {
			mixed = append(mixed, Observation{
				Labels: append([]pattern.Label(nil), sliding[i].Labels...),
				Class:  sliding[i].Class,
			})
		}
		mixed = append(mixed, sliding[38:]...)
		for _, obs := range [][]Observation{sliding, mixed} {
			for _, candidate := range enumerateCompositions(obs, 3) {
				marks := make([]bool, len(obs))
				markMatches(obs, &candidate, MatchContiguous, marks)
				for j := range obs {
					want := candidate.MatchedBy(obs[j].Labels, MatchContiguous)
					if marks[j] != want {
						t.Fatalf("omega=%d candidate %v window %d: marked %v, MatchedBy %v",
							omega, candidate, j, marks[j], want)
					}
				}
			}
		}
	}
}

// Subsequence-mode trees must also fit separable training data.
func TestBuildSubsequenceMode(t *testing.T) {
	tree, obs := buildTestTree(t, 5, Options{Match: MatchSubsequence})
	for i, c := range tree.PredictAll(obs) {
		if c != obs[i].Class {
			t.Fatalf("subsequence tree misclassifies training obs %d", i)
		}
	}
}

func TestDOTExport(t *testing.T) {
	tree, _ := buildTestTree(t, 5, Options{})
	dot := tree.DOT(cfg2)
	for _, want := range []string{"digraph cdt", "∈o", "∉o", "anomaly", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	// Node count in the DOT source must match the tree.
	st := tree.Stats()
	if got := strings.Count(dot, "[shape="); got != st.Nodes {
		t.Errorf("DOT declares %d nodes, tree has %d", got, st.Nodes)
	}
	// Leaf-only tree renders too.
	leafTree := &Tree{Root: &Node{Counts: ClassCounts{Normal: 3}}, Omega: 2}
	if !strings.Contains(leafTree.DOT(cfg2), "normal=3") {
		t.Error("leaf-only DOT wrong")
	}
}
