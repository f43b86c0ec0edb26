package core

import (
	"math/rand"
	"testing"

	"cdt/internal/pattern"
)

// The latest-start NFA must agree with per-window matchSubsequence over
// a sliding sequence, including patterns longer than the window.
func TestSubseqNFALatestStartMatchesMatchedBy(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	alphabet := cfg2.Alphabet()
	seq := make([]pattern.Label, 90)
	for j := range seq {
		seq[j] = alphabet[rng.Intn(5)]
	}
	var pats [][]pattern.Label
	pats = append(pats, nil) // empty pattern matches every window
	for n := 1; n <= 7; n++ {
		p := make([]pattern.Label, n)
		for j := range p {
			p[j] = alphabet[rng.Intn(5)]
		}
		pats = append(pats, p)
	}
	pats = append(pats, seq[10:14]) // a pattern known to occur
	for _, omega := range []int{1, 3, 5} {
		nfa := NewSubseqNFA(pats)
		for i, l := range seq {
			nfa.Step(l)
			if i+1 < omega {
				continue
			}
			ws := i + 1 - omega
			window := seq[ws : i+1]
			for p := range pats {
				got := nfa.LatestStart(p) >= ws
				want := Composition{Labels: pats[p]}.MatchedBy(window, MatchSubsequence)
				if got != want {
					t.Fatalf("omega=%d window[%d:%d] pattern %d: nfa %v, MatchedBy %v",
						omega, ws, i+1, p, got, want)
				}
			}
		}
	}
}

// Stale chains from before a run boundary must never fire a window of a
// later, unrelated run: the NFA is global and never reset, so this is
// the property every engine consumer leans on.
func TestSubseqNFASurvivesRunBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := cfg2.Alphabet()
	const omega = 4
	pats := [][]pattern.Label{
		{alphabet[0], alphabet[1]},
		{alphabet[1], alphabet[0], alphabet[2]},
	}
	nfa := NewSubseqNFA(pats)
	for run := 0; run < 30; run++ {
		n := omega + rng.Intn(6)
		seq := make([]pattern.Label, n)
		for j := range seq {
			seq[j] = alphabet[rng.Intn(4)]
		}
		for i, l := range seq {
			nfa.Step(l)
			if i+1 < omega {
				continue
			}
			ws := nfa.Pos() - omega
			window := seq[i+1-omega : i+1]
			for p := range pats {
				got := nfa.LatestStart(p) >= ws
				want := Composition{Labels: pats[p]}.MatchedBy(window, MatchSubsequence)
				if got != want {
					t.Fatalf("run %d window ending at %d pattern %d: nfa %v, MatchedBy %v",
						run, i, p, got, want)
				}
			}
		}
	}
}

// The NFA-based subsequence support counting of the trie's candidates
// must agree exactly with direct per-candidate matching on the oracle's,
// over pure sliding input and mixed (run + isolated copies) input alike.
func TestSubsequenceSupportCountingMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	alphabet := cfg2.Alphabet()
	seq := make([]pattern.Label, 110)
	for j := range seq {
		seq[j] = alphabet[rng.Intn(6)]
	}
	anoms := make([]bool, len(seq)+2)
	for j := range anoms {
		if rng.Intn(8) == 0 {
			anoms[j] = true
		}
	}
	for _, omega := range []int{2, 5, 9} {
		sliding, err := Windows(seq, anoms, omega)
		if err != nil {
			t.Fatal(err)
		}
		mixed := append([]Observation(nil), sliding[:35]...)
		for i := 35; i < 45; i++ {
			mixed = append(mixed, Observation{
				Labels: append([]pattern.Label(nil), sliding[i].Labels...),
				Class:  sliding[i].Class,
			})
		}
		mixed = append(mixed, sliding[45:]...)
		for _, obs := range [][]Observation{sliding, mixed} {
			for _, maxLen := range []int{0, 1, 3} {
				candidates := enumerateCompositions(obs, maxLen)
				if len(candidates) == 0 {
					t.Fatal("no candidates")
				}
				for _, par := range []int{1, 4} {
					opts := Options{MaxCompositionLen: maxLen, Match: MatchSubsequence, Parallelism: par}
					comps, fast := trieCandidates(poolSupports(obs, opts))
					slow := countSupportsNaive(obs, candidates, opts)
					if len(comps) != len(candidates) {
						t.Fatalf("omega=%d maxLen=%d: %d trie candidates, oracle %d", omega, maxLen, len(comps), len(candidates))
					}
					for i := range candidates {
						if compareCompositions(comps[i], candidates[i]) != 0 || fast[i] != slow[i] {
							t.Fatalf("omega=%d maxLen=%d par=%d candidate %v: fast %+v, slow %+v",
								omega, maxLen, par, candidates[i], fast[i], slow[i])
						}
					}
				}
			}
		}
	}
}
