package engine_test

// Allocation tests: the cursor runs once per label on every stream and
// the sweep once per batch series or corpus, so neither may allocate
// per label, run or window. Test names contain "Allocates" so
// CI's allocation step, which runs without the race detector, selects
// them.

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"cdt/internal/core"
	"cdt/internal/engine"
	"cdt/internal/pattern"
	"cdt/internal/rules"
)

// raceEnabled is set by race_test.go under the race detector, which
// drops sync.Pool items at random and so makes allocation counts vary.
var raceEnabled bool

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
}

var matchModes = []core.MatchMode{core.MatchContiguous, core.MatchSubsequence}

// firingRules draws random rules until it has n that fire on at least
// one ω-window of labels, so an allocation on the fired path shows.
func firingRules(t *testing.T, rng *rand.Rand, mode core.MatchMode, labels []pattern.Label, omega, n int) []rules.Rule {
	t.Helper()
	alphabet := cfg2.Alphabet()
	var out []rules.Rule
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			t.Fatalf("mode=%v: only %d of %d random rules fire", mode, len(out), n)
		}
		r := randomRule(rng, alphabet, mode)
		m := engine.Compile(r, omega).Sweep(labels)
		for w := 0; w < m.NumWindows(); w++ {
			if m.Fired(w) {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

func TestCursorStepAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	rng := rand.New(rand.NewSource(61))
	labels := randomLabels(rng, cfg2.Alphabet(), 512)
	for _, mode := range matchModes {
		for _, omega := range []int{1, 3, 8} {
			for _, r := range firingRules(t, rng, mode, labels, omega, 10) {
				cur := engine.Compile(r, omega).NewCursor()
				// AllocsPerRun's warm-up pass sizes the cursor's fired and
				// active sets; every later pass must reuse them.
				if n := testing.AllocsPerRun(5, func() {
					for _, l := range labels {
						cur.Step(l)
					}
				}); n != 0 {
					t.Fatalf("mode=%v ω=%d: %v allocations per %d Steps, want 0", mode, omega, n, len(labels))
				}
			}
		}
	}
}

// sweepAllocSlack bounds how many more allocations a sweep may make over
// a long input than over a short one, should the scratch pool have been
// emptied by a collection between the two. One allocation per window
// would add tens of thousands.
const sweepAllocSlack = 8

// checkSweepAllocs fails t unless sweeping long inputs allocates within
// sweepAllocSlack of sweeping short ones.
func checkSweepAllocs(t *testing.T, what string, short, long func()) {
	t.Helper()
	s, l := testing.AllocsPerRun(1, short), testing.AllocsPerRun(1, long)
	if l > s+sweepAllocSlack {
		t.Fatalf("%s: %v allocations on the long input, %v on the short one; want at most %d more",
			what, l, s, sweepAllocSlack)
	}
}

func TestSweepAllocatesPerSweepNotPerWindow(t *testing.T) {
	skipUnderRace(t)
	rng := rand.New(rand.NewSource(63))
	long := randomLabels(rng, cfg2.Alphabet(), 1<<16)
	for _, mode := range matchModes {
		for _, omega := range []int{1, 5, 8} {
			short := long[:64+omega-1]
			shortRuns, longRuns := cutRuns(short, omega), cutRuns(long, omega)
			for _, r := range firingRules(t, rng, mode, short, omega, 10) {
				e := engine.Compile(r, omega)
				checkSweepAllocs(t, "Sweep "+mode.String(),
					func() { e.Sweep(short) }, func() { e.Sweep(long) })
				checkSweepAllocs(t, "Sweep over runs "+mode.String(),
					func() { e.Sweep(shortRuns...) }, func() { e.Sweep(longRuns...) })
			}
		}
	}
}

// cutRuns cuts labels into runs of 32 windows each, the last taking
// what is left, the way a corpus hands a sweep one run per series.
func cutRuns(labels []pattern.Label, omega int) [][]pattern.Label {
	var runs [][]pattern.Label
	for n := 32 + omega - 1; len(labels) > 0; labels = labels[min(n, len(labels)):] {
		runs = append(runs, labels[:min(n, len(labels))])
	}
	return runs
}

// TestSweepAllocatesOnlyItsMarks: with the scratch pool warm, a sweep
// allocates exactly its Marks — the header and one bitset slice —
// whatever the series length, however many runs it takes and however
// many windows fire. A one-run call also shows that the slice the
// variadic call builds stays on the stack.
func TestSweepAllocatesOnlyItsMarks(t *testing.T) {
	skipUnderRace(t)
	// A collection could empty the scratch pool mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(65))
	alphabet := cfg2.Alphabet()
	// randomLabels draws from alphabet[:5], so absent never occurs.
	absent := core.Composition{Labels: alphabet[20:21]}
	long := randomLabels(rng, alphabet, 4096+130)
	for _, mode := range matchModes {
		for _, omega := range []int{1, 5, 64, 130} {
			for _, c := range []struct {
				name string
				r    rules.Rule
			}{
				{"none fire", rules.Rule{Mode: mode, Predicates: []rules.Predicate{{Literals: []rules.Literal{{Comp: absent}}}}}},
				{"all fire", rules.Rule{Mode: mode, Predicates: []rules.Predicate{{Literals: []rules.Literal{{Comp: absent, Neg: true}}}}}},
				{"random", firingRules(t, rng, mode, long, omega, 1)[0]},
			} {
				name, e := c.name, engine.Compile(c.r, omega)
				for _, labels := range [][]pattern.Label{long[:omega+10], long} {
					if n := testing.AllocsPerRun(10, func() { e.Sweep(labels) }); n != 2 {
						t.Errorf("Sweep mode=%v ω=%d %s over %d labels: %v allocations, want 2",
							mode, omega, name, len(labels), n)
					}
					runs := cutRuns(labels, omega)
					if n := testing.AllocsPerRun(10, func() { e.Sweep(runs...) }); n != 2 {
						t.Errorf("Sweep mode=%v ω=%d %s over %d runs: %v allocations, want 2",
							mode, omega, name, len(runs), n)
					}
					if n := testing.AllocsPerRun(10, func() { e.Sweep(labels[:omega], labels[omega:]) }); n != 2 {
						t.Errorf("Sweep mode=%v ω=%d %s over two runs: %v allocations, want 2",
							mode, omega, name, n)
					}
				}
			}
		}
	}
}

// TestSweepAllocatesNothingWithMarksReleased: with the scratch and marks
// pools warm, a sweep whose caller releases its Marks allocates
// nothing, over one run or many, for a shorter series than the released
// marks held or for the same one.
func TestSweepAllocatesNothingWithMarksReleased(t *testing.T) {
	skipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(66))
	long := randomLabels(rng, cfg2.Alphabet(), 4096+130)
	for _, mode := range matchModes {
		for _, omega := range []int{1, 5, 64, 130} {
			e := engine.Compile(firingRules(t, rng, mode, long, omega, 1)[0], omega)
			for _, labels := range [][]pattern.Label{long, long[:omega+10]} {
				runs := cutRuns(labels, omega)
				if n := testing.AllocsPerRun(10, func() { e.Release(e.Sweep(labels)) }); n != 0 {
					t.Errorf("Sweep mode=%v ω=%d over %d labels, released: %v allocations, want 0", mode, omega, len(labels), n)
				}
				if n := testing.AllocsPerRun(10, func() { e.Release(e.Sweep(runs...)) }); n != 0 {
					t.Errorf("Sweep mode=%v ω=%d over %d runs, released: %v allocations, want 0", mode, omega, len(runs), n)
				}
			}
		}
	}
}
