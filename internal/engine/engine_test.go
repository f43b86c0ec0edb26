package engine_test

// Differential tests: the compiled engine must be bit-identical to the
// reference semantics — rules.Predicate.Matches, i.e. per-window
// Composition.MatchedBy — in both match modes, in both views (Sweep
// over one or many runs, Cursor).

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

// appendFired appends the 0-based indices of the predicates that marks
// has firing on window w, out of numPreds, in rule order.
func appendFired(dst []int, marks *engine.Marks, numPreds, w int) []int {
	for p := range numPreds {
		if marks.Has(p, w) {
			dst = append(dst, p)
		}
	}
	return dst
}

// checkSweep fails t unless e.Sweep(runs...) marks every ω-window of
// each run, in run order, as the oracle evaluates r on it.
func checkSweep(t *testing.T, r rules.Rule, omega int, runs ...[]pattern.Label) {
	t.Helper()
	marks := engine.Compile(r, omega).Sweep(runs...)
	wantWindows := 0
	for _, labels := range runs {
		wantWindows += max(len(labels)-omega+1, 0)
	}
	if marks.NumWindows() != wantWindows {
		t.Fatalf("mode=%v omega=%d %d runs: %d windows, want %d",
			r.Mode, omega, len(runs), marks.NumWindows(), wantWindows)
	}
	var got []int
	w := 0
	for ri, labels := range runs {
		for s := 0; s+omega <= len(labels); s, w = s+1, w+1 {
			want := oracleFired(r, labels[s:s+omega])
			got = appendFired(got[:0], marks, len(r.Predicates), w)
			checkWindow(t, fmt.Sprintf("mode=%v omega=%d run %d (len %d) window %d (mark %d)",
				r.Mode, omega, ri, len(labels), s, w), got, want)
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
	// The whole-word views agree with the per-window ones just checked.
	var wantNext, gotNext []int
	hits := 0
	for w := range marks.NumWindows() {
		if marks.Fired(w) {
			wantNext = append(wantNext, w)
		}
		hits += len(appendFired(got[:0], marks, len(r.Predicates), w))
	}
	for w := marks.NextFired(0); w >= 0; w = marks.NextFired(w + 1) {
		gotNext = append(gotNext, w)
	}
	if !slices.Equal(gotNext, wantNext) || marks.NumFired() != len(wantNext) || marks.NumHits() != hits {
		t.Fatalf("mode=%v omega=%d %d runs: NextFired visits %v, NumFired %d, NumHits %d; want %v, %d, %d",
			r.Mode, omega, len(runs), gotNext, marks.NumFired(), marks.NumHits(), wantNext, len(wantNext), hits)
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

func TestSweepRunsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	alphabet := cfg2.Alphabet()
	for _, mode := range matchModes {
		for trial := 0; trial < 25; trial++ {
			r := randomRule(rng, alphabet, mode)
			omega := 1 + rng.Intn(5)
			var runs [][]pattern.Label
			for k := rng.Intn(6); k >= 0; k-- {
				runs = append(runs, randomLabels(rng, alphabet, rng.Intn(3*omega)))
			}
			checkSweep(t, r, omega, runs...)
		}
	}
	// One subtest per ω, each with its own seed, so that -run reproduces
	// a failing case's draws.
	for _, omega := range boundaryOmegas {
		t.Run(fmt.Sprintf("omega=%d", omega), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(530 + omega)))
			for _, mode := range matchModes {
				for _, extra := range boundaryExtras {
					seq := randomLabels(rng, alphabet, omega+extra)
					checkSweep(t, drawnRule(rng, seq, omega, mode), omega, boundaryRuns(rng, seq, omega)...)
				}
			}
		})
	}
}

// boundaryRuns cuts seq into consecutive runs that hold 0 windows
// (shorter than ω), 1 (exactly ω long), 63, 64 or 65 windows, in an
// order rotated at random, the last run taking what is left; so each
// run's first window lands on both sides of word boundaries of the
// marks, and each run's own windows fill, or just miss, a word.
func boundaryRuns(rng *rand.Rand, seq []pattern.Label, omega int) [][]pattern.Label {
	windows := []int{0, 1, 63, 64, 65}
	var runs [][]pattern.Label
	for k := rng.Intn(len(windows)); len(seq) > 0; k++ {
		n := min(len(seq), omega-1+windows[k%len(windows)])
		runs = append(runs, seq[:n])
		seq = seq[n:]
	}
	return runs
}

// checkCursor fails t unless one cursor, stepped through runs and reset
// before each, completes each run's ω-windows at their last labels with
// the fired sets the oracle evaluates r to on them.
func checkCursor(t *testing.T, r rules.Rule, omega int, runs ...[]pattern.Label) {
	t.Helper()
	cur := engine.Compile(r, omega).NewCursor()
	for ri, labels := range runs {
		cur.Reset()
		for i, l := range labels {
			fired, complete := cur.Step(l)
			if complete != (i+1 >= omega) {
				t.Fatalf("mode=%v omega=%d run %d (len %d) label %d: complete=%v",
					r.Mode, omega, ri, len(labels), i, complete)
			}
			if complete {
				checkWindow(t, fmt.Sprintf("cursor mode=%v omega=%d run %d (len %d) window %d",
					r.Mode, omega, ri, len(labels), i+1-omega), fired, oracleFired(r, labels[i+1-omega:i+1]))
			}
		}
	}
}

// TestCursorRunsMatchOracle steps cursors through the word-boundary
// table: windows of up to 130 labels and compositions of up to ω+1 cut
// from the series, which the contiguous expiry scan and the subsequence
// NFA must track across ω steps and across the resets between runs.
func TestCursorRunsMatchOracle(t *testing.T) {
	alphabet := cfg2.Alphabet()
	for _, omega := range boundaryOmegas {
		t.Run(fmt.Sprintf("omega=%d", omega), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(560 + omega)))
			for _, mode := range matchModes {
				for _, extra := range boundaryExtras {
					seq := randomLabels(rng, alphabet, omega+extra)
					checkCursor(t, drawnRule(rng, seq, omega, mode), omega, boundaryRuns(rng, seq, omega)...)
				}
			}
		})
	}
}

// TestSweepRunLayout spells out a multi-run sweep at ω = 3 for the rule
// "a then b": runs [c a], [b c a], [b a c b] and [a b c] make windows
// bca, bac, acb and abc, in that order. The first run is shorter than ω
// and adds none; the last is exactly ω long and adds one. "a then b"
// occurs across both of the first run boundaries, which no window spans,
// so only acb (in subsequence mode) and abc fire.
func TestSweepRunLayout(t *testing.T) {
	alphabet := cfg2.Alphabet()
	a, b, c := alphabet[0], alphabet[1], alphabet[2]
	runs := [][]pattern.Label{{c, a}, {b, c, a}, {b, a, c, b}, {a, b, c}}
	for _, tc := range []struct {
		mode core.MatchMode
		want []bool
	}{
		{core.MatchContiguous, []bool{false, false, false, true}},
		{core.MatchSubsequence, []bool{false, false, true, true}},
	} {
		e := engine.Compile(rules.Rule{Mode: tc.mode, Predicates: []rules.Predicate{
			{Literals: []rules.Literal{{Comp: core.Composition{Labels: []pattern.Label{a, b}}}}},
		}}, 3)
		for _, none := range [][][]pattern.Label{nil, {nil}, runs[:1]} {
			if m := e.Sweep(none...); m.NumWindows() != 0 {
				t.Errorf("mode=%v: sweep of %d runs shorter than ω has %d windows", tc.mode, len(none), m.NumWindows())
			}
		}
		m := e.Sweep(runs...)
		if m.NumWindows() != len(tc.want) {
			t.Fatalf("mode=%v: %d windows, want %d", tc.mode, m.NumWindows(), len(tc.want))
		}
		for w, want := range tc.want {
			if m.Fired(w) != want {
				t.Errorf("mode=%v: window %d fired %v, want %v", tc.mode, w, m.Fired(w), want)
			}
		}
	}
}

func TestEmptyAndDegenerateRules(t *testing.T) {
	alphabet := cfg2.Alphabet()

	// No predicates: nothing ever fires.
	e := engine.Compile(rules.Rule{}, 3)
	if m := e.Sweep(alphabet[:6]); m.NumWindows() != 4 || m.Fired(0) {
		t.Fatal("empty rule sweep fired")
	}
	if fired, complete := stepAll(e.NewCursor(), alphabet[:3]); !complete || len(fired) != 0 {
		t.Fatalf("empty rule cursor fired %v (complete %v)", fired, complete)
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
	if fired, _ := stepAll(e.NewCursor(), alphabet[:3]); !slices.Equal(fired, want) {
		t.Fatalf("degenerate rule fired %v, want %v", fired, want)
	}
	m := e.Sweep(alphabet[:6])
	for w := 0; w < m.NumWindows(); w++ {
		if got := appendFired(nil, m, len(r.Predicates), w); !slices.Equal(got, want) {
			t.Fatalf("window %d fired %v, want %v", w, got, want)
		}
	}
}

// stepAll steps cur over labels and returns the last Step's result.
func stepAll(cur *engine.Cursor, labels []pattern.Label) (fired []int, complete bool) {
	for _, l := range labels {
		fired, complete = cur.Step(l)
	}
	return fired, complete
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
			cur := e.NewCursor()
			for i, l := range labels {
				fired, complete := cur.Step(l)
				if !complete {
					continue
				}
				w, first := i+1-4, -1
				if len(fired) > 0 {
					first = fired[0]
				}
				if m.First(w) != wantMarks.First(w) || first != wantMarks.First(w) {
					t.Errorf("concurrent sweep or cursor diverged at window %d", w)
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
