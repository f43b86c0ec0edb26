package engine_test

// Allocation tests: the cursor runs once per label on every stream and
// the sweeps once per batch series or pool, so none of them may
// allocate per label or per window. Test names contain "Allocates" so
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

func TestEvalWindowAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	rng := rand.New(rand.NewSource(62))
	alphabet := cfg2.Alphabet()
	for _, mode := range matchModes {
		fired := 0
		for trial := 0; trial < 60; trial++ {
			r := randomRule(rng, alphabet, mode)
			omega := 1 + rng.Intn(6)
			e := engine.Compile(r, omega)
			window := randomLabels(rng, alphabet, omega+rng.Intn(6))
			dst := make([]int, 0, e.NumPredicates())
			if len(e.EvalWindow(window, dst)) == 0 {
				continue
			}
			fired++
			if n := testing.AllocsPerRun(100, func() {
				dst = e.EvalWindow(window, dst[:0])
			}); n != 0 {
				t.Fatalf("mode=%v ω=%d: EvalWindow made %v allocations into a presized dst, want 0", mode, omega, n)
			}
		}
		if fired < 10 {
			t.Fatalf("mode=%v: only %d firing windows measured", mode, fired)
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
			for _, r := range firingRules(t, rng, mode, short, omega, 10) {
				e := engine.Compile(r, omega)
				checkSweepAllocs(t, "Sweep "+mode.String(),
					func() { e.Sweep(short) }, func() { e.Sweep(long) })
			}
		}
	}
}

// pooledObservations lays out n ω-windows the way a Corpus pools them:
// maximal runs of consecutive sliding windows, broken every 32 windows
// by an isolated copy that forces the cursor to reset.
func pooledObservations(t *testing.T, labels []pattern.Label, omega, n int) []core.Observation {
	t.Helper()
	obs, err := core.Windows(labels[:n+omega-1], nil, omega)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(obs); i += 32 {
		obs[i].Labels = append([]pattern.Label(nil), obs[i].Labels...)
	}
	return obs
}

func TestSweepObservationsAllocatesPerSweepNotPerWindow(t *testing.T) {
	skipUnderRace(t)
	rng := rand.New(rand.NewSource(64))
	labels := randomLabels(rng, cfg2.Alphabet(), 1<<16+8)
	for _, mode := range matchModes {
		for _, omega := range []int{1, 5, 8} {
			short := pooledObservations(t, labels, omega, 64)
			long := pooledObservations(t, labels, omega, 1<<16)
			for _, r := range firingRules(t, rng, mode, labels[:64+omega-1], omega, 10) {
				e := engine.Compile(r, omega)
				checkSweepAllocs(t, "SweepObservations "+mode.String(),
					func() { e.SweepObservations(short) }, func() { e.SweepObservations(long) })
			}
		}
	}
}

// TestSweepAllocatesOnlyItsMarks: with the scratch pool warm, a sweep
// allocates exactly its Marks — the header and one bitset slice —
// whatever the series length and however many windows fire.
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
					obs := pooledObservations(t, labels, omega, len(labels)-omega+1)
					if n := testing.AllocsPerRun(10, func() { e.SweepObservations(obs) }); n != 2 {
						t.Errorf("SweepObservations mode=%v ω=%d %s over %d windows: %v allocations, want 2",
							mode, omega, name, len(obs), n)
					}
				}
			}
		}
	}
}
