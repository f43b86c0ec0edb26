package engine_test

// Differential tests: the compiled engine must be bit-identical to the
// reference semantics — rules.Predicate.Matches, i.e. per-window
// Composition.MatchedBy — in both match modes, across every view
// (Sweep, SweepObservations, Cursor, EvalWindow).

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cdt/internal/core"
	"cdt/internal/engine"
	"cdt/internal/pattern"
	"cdt/internal/rules"
)

var cfg2 = pattern.NewConfig(2)

// oracleFired evaluates the rule the reference way: every predicate via
// Predicate.Matches on the whole window.
func oracleFired(r rules.Rule, window []pattern.Label) []int {
	var out []int
	for pi, p := range r.Predicates {
		if p.Matches(window, r.Mode) {
			out = append(out, pi)
		}
	}
	return out
}

// randomRule builds a rule with compositions drawn from the alphabet,
// including empty compositions, negations, empty predicates (TRUE), and
// compositions longer than typical windows.
func randomRule(rng *rand.Rand, alphabet []pattern.Label, mode core.MatchMode) rules.Rule {
	r := rules.Rule{Mode: mode}
	nPred := 1 + rng.Intn(5)
	for p := 0; p < nPred; p++ {
		var pred rules.Predicate
		for l, nLit := 0, rng.Intn(4); l < nLit; l++ {
			n := rng.Intn(6) // 0 => empty composition
			comp := make([]pattern.Label, n)
			for j := range comp {
				comp[j] = alphabet[rng.Intn(5)]
			}
			pred.Literals = append(pred.Literals, rules.Literal{
				Comp: core.Composition{Labels: comp},
				Neg:  rng.Intn(3) == 0,
			})
		}
		r.Predicates = append(r.Predicates, pred)
	}
	return r
}

func randomLabels(rng *rand.Rand, alphabet []pattern.Label, n int) []pattern.Label {
	out := make([]pattern.Label, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(5)]
	}
	return out
}

func checkWindow(t *testing.T, ctx string, got, want []int) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: engine fired %v, oracle %v", ctx, got, want)
	}
}

// checkSweep fails t unless e.Sweep(labels) marks every ω-window of
// labels as the oracle evaluates r on it.
func checkSweep(t *testing.T, r rules.Rule, omega int, labels []pattern.Label) {
	t.Helper()
	marks := engine.Compile(r, omega).Sweep(labels)
	wantWindows := max(len(labels)-omega+1, 0)
	if marks.NumWindows() != wantWindows {
		t.Fatalf("mode=%v omega=%d len=%d: %d windows, want %d",
			r.Mode, omega, len(labels), marks.NumWindows(), wantWindows)
	}
	var got []int
	for w := 0; w < marks.NumWindows(); w++ {
		want := oracleFired(r, labels[w:w+omega])
		got = marks.AppendFired(got[:0], w)
		checkWindow(t, fmt.Sprintf("mode=%v omega=%d len=%d window %d", r.Mode, omega, len(labels), w), got, want)
		if marks.Fired(w) != (len(want) > 0) {
			t.Fatalf("Fired(%d) = %v, oracle %v", w, marks.Fired(w), want)
		}
		wantFirst := -1
		if len(want) > 0 {
			wantFirst = want[0]
		}
		if marks.First(w) != wantFirst {
			t.Fatalf("First(%d) = %d, want %d", w, marks.First(w), wantFirst)
		}
	}
}

func TestSweepMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	alphabet := cfg2.Alphabet()
	for _, mode := range matchModes {
		for trial := 0; trial < 40; trial++ {
			r := randomRule(rng, alphabet, mode)
			omega := 1 + rng.Intn(8)
			checkSweep(t, r, omega, randomLabels(rng, alphabet, rng.Intn(40)))
		}
	}
	for _, mode := range matchModes {
		for _, omega := range boundaryOmegas {
			for _, extra := range boundaryExtras {
				labels := randomLabels(rng, alphabet, omega+extra)
				for trial := 0; trial < 2; trial++ {
					checkSweep(t, drawnRule(rng, labels, omega, mode), omega, labels)
				}
			}
		}
	}
}

// The batch sweep works 64 windows per word and shifts position bitsets
// by up to ω−1 bits, so the word-boundary cases put ω and the window
// count on both sides of word boundaries (series lengths ω+extra), and
// drawnRule cuts compositions of up to ω+1 labels from the series
// itself, so that long compositions occur in some windows and shifts of
// 64 bits or more take effect.
var (
	boundaryOmegas = []int{1, 2, 63, 64, 65, 130}
	boundaryExtras = []int{-1, 0, 62, 63, 64, 127, 700}
)

// drawnRule builds a rule whose compositions are mostly cut from labels
// — a contiguous run, or in subsequence mode an in-order pick from a
// span — at lengths around word and window boundaries, and otherwise
// drawn from the alphabet as in randomRule.
func drawnRule(rng *rand.Rand, labels []pattern.Label, omega int, mode core.MatchMode) rules.Rule {
	lengths := []int{1, 2, 3, 5, 63, 64, 65, 66, omega - 1, omega, omega + 1}
	alphabet := cfg2.Alphabet()
	r := rules.Rule{Mode: mode}
	for p, nPred := 0, 1+rng.Intn(4); p < nPred; p++ {
		var pred rules.Predicate
		for l, nLit := 0, 1+rng.Intn(3); l < nLit; l++ {
			var comp []pattern.Label
			if k := lengths[rng.Intn(len(lengths))]; k >= 1 && k <= len(labels) && rng.Intn(4) != 0 {
				comp = cutComposition(rng, labels, k, mode)
			} else {
				comp = randomLabels(rng, alphabet, 1+rng.Intn(5))
			}
			pred.Literals = append(pred.Literals, rules.Literal{
				Comp: core.Composition{Labels: comp},
				Neg:  rng.Intn(3) == 0,
			})
		}
		r.Predicates = append(r.Predicates, pred)
	}
	return r
}

// cutComposition returns k labels occurring in labels under mode.
func cutComposition(rng *rand.Rand, labels []pattern.Label, k int, mode core.MatchMode) []pattern.Label {
	if mode == core.MatchContiguous {
		s := rng.Intn(len(labels) - k + 1)
		return slices.Clone(labels[s : s+k])
	}
	span := min(len(labels), k+rng.Intn(k+1))
	s := rng.Intn(len(labels) - span + 1)
	picks := rng.Perm(span)[:k]
	slices.Sort(picks)
	comp := make([]pattern.Label, k)
	for i, j := range picks {
		comp[i] = labels[s+j]
	}
	return comp
}

func TestCursorResetIsolatesRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	alphabet := cfg2.Alphabet()
	for _, mode := range matchModes {
		for trial := 0; trial < 25; trial++ {
			r := randomRule(rng, alphabet, mode)
			omega := 1 + rng.Intn(6)
			e := engine.Compile(r, omega)
			cur := e.NewCursor()
			for run := 0; run < 4; run++ {
				labels := randomLabels(rng, alphabet, rng.Intn(3*omega))
				for i, l := range labels {
					fired, complete := cur.Step(l)
					if complete != (i+1 >= omega) {
						t.Fatalf("mode=%v run=%d step=%d: complete=%v", mode, run, i, complete)
					}
					if !complete {
						continue
					}
					want := oracleFired(r, labels[i+1-omega:i+1])
					checkWindow(t, "cursor "+mode.String(), fired, want)
				}
				cur.Reset()
				if cur.RunLen() != 0 {
					t.Fatal("RunLen after Reset")
				}
			}
		}
	}
}

// checkSweepObservations fails t unless e.SweepObservations(obs) marks
// every observation as the oracle evaluates r on it.
func checkSweepObservations(t *testing.T, r rules.Rule, omega int, obs []core.Observation) {
	t.Helper()
	marks := engine.Compile(r, omega).SweepObservations(obs)
	if marks.NumWindows() != len(obs) {
		t.Fatalf("%d windows for %d observations", marks.NumWindows(), len(obs))
	}
	var got []int
	for i := range obs {
		want := oracleFired(r, obs[i].Labels)
		got = marks.AppendFired(got[:0], i)
		checkWindow(t, fmt.Sprintf("obs mode=%v omega=%d observation %d of %d", r.Mode, omega, i, len(obs)), got, want)
	}
}

func TestSweepObservationsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	alphabet := cfg2.Alphabet()
	for _, mode := range matchModes {
		for trial := 0; trial < 25; trial++ {
			r := randomRule(rng, alphabet, mode)
			omega := 1 + rng.Intn(5)
			seq := randomLabels(rng, alphabet, omega+20)
			sliding, err := core.Windows(seq, nil, omega)
			if err != nil {
				t.Fatal(err)
			}
			// Mixed pool: run, isolated copies (fresh backing arrays), an
			// off-ω observation, then the tail of the run.
			obs := append([]core.Observation(nil), sliding[:8]...)
			for i := 8; i < 12; i++ {
				obs = append(obs, core.Observation{
					Labels: append([]pattern.Label(nil), sliding[i].Labels...),
				})
			}
			obs = append(obs, core.Observation{Labels: randomLabels(rng, alphabet, omega+3)})
			obs = append(obs, sliding[12:]...)
			checkSweepObservations(t, r, omega, obs)
		}
	}
	for _, mode := range matchModes {
		for _, omega := range boundaryOmegas {
			for _, extra := range boundaryExtras {
				seq := randomLabels(rng, alphabet, omega+extra)
				checkSweepObservations(t, drawnRule(rng, seq, omega, mode), omega, boundaryPool(rng, seq, omega))
			}
		}
	}
}

// boundaryPool lays out the ω-windows of seq as a pool whose runs start
// at many offsets modulo 64: a run, isolated copies, an observation
// longer than ω, the rest of the run, then up to 70 windows capped at
// their own length, whose run labels cannot be resliced from the first
// window.
func boundaryPool(rng *rand.Rand, seq []pattern.Label, omega int) []core.Observation {
	var sliding []core.Observation
	if len(seq) >= omega {
		var err error
		if sliding, err = core.Windows(seq, nil, omega); err != nil {
			panic(err)
		}
	}
	k1 := len(sliding) / 3
	k2 := min(k1+2, len(sliding))
	obs := slices.Clone(sliding[:k1])
	for _, o := range sliding[k1:k2] {
		obs = append(obs, core.Observation{Labels: slices.Clone(o.Labels)})
	}
	long := seq[:min(len(seq), omega+1+rng.Intn(70))]
	obs = append(obs, core.Observation{Labels: slices.Clone(long)})
	obs = append(obs, sliding[k2:]...)
	for s := 0; s < min(len(sliding), 70); s++ {
		obs = append(obs, core.Observation{Labels: seq[s : s+omega : s+omega]})
	}
	return obs
}

func TestEvalWindowMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	alphabet := cfg2.Alphabet()
	for _, mode := range matchModes {
		for trial := 0; trial < 40; trial++ {
			r := randomRule(rng, alphabet, mode)
			omega := 1 + rng.Intn(5)
			e := engine.Compile(r, omega)
			// Arbitrary lengths: shorter than ω, ω, and longer — longer
			// windows may satisfy compositions longer than ω.
			for _, n := range []int{0, omega - 1, omega, omega + 4, omega + 9} {
				if n < 0 {
					continue
				}
				window := randomLabels(rng, alphabet, n)
				got := e.EvalWindow(window, nil)
				checkWindow(t, "evalwindow "+mode.String(), got, oracleFired(r, window))
			}
		}
	}
}

func TestEmptyAndDegenerateRules(t *testing.T) {
	alphabet := cfg2.Alphabet()
	win := alphabet[:3]

	// No predicates: nothing ever fires.
	e := engine.Compile(rules.Rule{}, 3)
	if got := e.EvalWindow(win, nil); len(got) != 0 {
		t.Fatalf("empty rule fired %v", got)
	}
	if m := e.Sweep(alphabet[:6]); m.NumWindows() != 4 || m.Fired(0) {
		t.Fatal("empty rule sweep fired")
	}

	// TRUE predicate (no literals) fires on every window; a predicate
	// with a negated empty composition never fires.
	r := rules.Rule{Predicates: []rules.Predicate{
		{},
		{Literals: []rules.Literal{{Comp: core.Composition{}, Neg: true}}},
		{Literals: []rules.Literal{{Comp: core.Composition{}}}},
	}}
	e = engine.Compile(r, 3)
	want := []int{0, 2}
	if got := e.EvalWindow(win, nil); !slices.Equal(got, want) {
		t.Fatalf("degenerate rule fired %v, want %v", got, want)
	}
	m := e.Sweep(alphabet[:6])
	for w := 0; w < m.NumWindows(); w++ {
		if got := m.AppendFired(nil, w); !slices.Equal(got, want) {
			t.Fatalf("window %d fired %v, want %v", w, got, want)
		}
	}
}

func TestEngineSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	alphabet := cfg2.Alphabet()
	r := randomRule(rng, alphabet, core.MatchContiguous)
	e := engine.Compile(r, 4)
	labels := randomLabels(rng, alphabet, 200)
	wantMarks := e.Sweep(labels)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			m := e.Sweep(labels)
			for w := 0; w < m.NumWindows(); w++ {
				if m.First(w) != wantMarks.First(w) {
					t.Errorf("concurrent sweep diverged at window %d", w)
					return
				}
			}
			_ = e.EvalWindow(labels[:10], nil)
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
