package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cdt/internal/pattern"
)

// The string-keyed candidate enumeration and per-candidate matching below
// are the direct reading of Algorithm 1 (lines 6-15). They are kept as the
// oracle the candidate trie is checked against: the same candidates in
// the same order with the same supports, hence the same splits.

// enumerateCompositions collects every distinct contiguous subsequence,
// with length in [1, maxLen], of the anomalous observations in obs — the
// candidate pool of list_of_all_possible_compositions (Algorithm 1,
// line 6). The paper derives candidate compositions "from an observation
// with anomaly": shapes that never appear near an anomaly cannot describe
// one. Candidates are returned in a deterministic order (increasing
// length, then lexicographic label order) so tree induction is
// reproducible.
func enumerateCompositions(obs []Observation, maxLen int) []Composition {
	seen := make(map[string]struct{})
	var out []Composition
	for i := range obs {
		if obs[i].Class != Anomaly {
			continue
		}
		labels := obs[i].Labels
		for start := 0; start < len(labels); start++ {
			limit := len(labels) - start
			if maxLen > 0 && maxLen < limit {
				limit = maxLen
			}
			for n := 1; n <= limit; n++ {
				c := Composition{Labels: labels[start : start+n]}
				k := c.Key()
				if _, ok := seen[k]; !ok {
					seen[k] = struct{}{}
					out = append(out, c)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return compareCompositions(out[i], out[j]) < 0 })
	return out
}

// compareCompositions orders candidates by length (shorter compositions
// first, so ties in information gain resolve toward simpler, more
// interpretable splits) and then by the unsigned byte order of their
// Key() encodings — compared label by label, without materializing the
// key strings.
func compareCompositions(a, b Composition) int {
	if len(a.Labels) != len(b.Labels) {
		return len(a.Labels) - len(b.Labels)
	}
	for i := range a.Labels {
		la, lb := a.Labels[i], b.Labels[i]
		if la.Var != lb.Var {
			return int(byte(la.Var)) - int(byte(lb.Var))
		}
		if la.Alpha != lb.Alpha {
			return int(byte(la.Alpha)) - int(byte(lb.Alpha))
		}
		if la.Beta != lb.Beta {
			return int(byte(la.Beta)) - int(byte(lb.Beta))
		}
	}
	return 0
}

// countSupportsNaive scores candidates by direct matching, parallelized
// across candidates.
func countSupportsNaive(obs []Observation, candidates []Composition, opts Options) []ClassCounts {
	counts := make([]ClassCounts, len(candidates))
	if len(candidates) == 0 {
		return counts
	}
	workers := opts.parallelism()
	if workers > len(candidates) {
		workers = len(candidates)
	}
	var wg sync.WaitGroup
	chunk := (len(candidates) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(candidates) {
			hi = len(candidates)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for ci := lo; ci < hi; ci++ {
				for i := range obs {
					if candidates[ci].MatchedBy(obs[i].Labels, opts.Match) {
						if obs[i].Class == Anomaly {
							counts[ci].Anomaly++
						} else {
							counts[ci].Normal++
						}
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return counts
}

// oracleBest is bestComposition read off the oracle: the first candidate
// in enumeration order whose gain strictly exceeds every earlier one.
func oracleBest(obs []Observation, opts Options) (*Composition, float64, ClassCounts) {
	candidates := enumerateCompositions(obs, opts.MaxCompositionLen)
	counts := countSupportsNaive(obs, candidates, opts)
	parent := Count(obs)
	bestIdx, bestGain := -1, 0.0
	for i, in := range counts {
		out := ClassCounts{Normal: parent.Normal - in.Normal, Anomaly: parent.Anomaly - in.Anomaly}
		if g := opts.Criterion.InformationGain(parent, in, out); g > bestGain {
			bestGain = g
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return nil, 0, ClassCounts{}
	}
	return &candidates[bestIdx], bestGain, counts[bestIdx]
}

// trieCandidates lists the trie's candidates for obs in the candidate
// order its tie-break uses (before), with their supports under opts,
// counted as bestComposition counts them.
func trieCandidates(tr *candidateTrie, obs []Observation, opts Options) ([]Composition, []ClassCounts) {
	tr.candidates(obs, opts.MaxCompositionLen)
	if opts.Match == MatchContiguous {
		tr.countContiguous(obs)
	} else {
		tr.countSubsequence(obs, opts)
	}
	order := make([]int32, len(tr.nodes)-1)
	for i := range order {
		order[i] = int32(i + 1)
	}
	sort.Slice(order, func(i, j int) bool { return tr.before(obs, order[i], order[j]) })
	comps := make([]Composition, len(order))
	counts := make([]ClassCounts, len(order))
	for i, n := range order {
		comps[i] = tr.composition(obs, n)
		counts[i] = tr.nodes[n].counts
	}
	return comps, counts
}

// checkAgainstOracle fails t unless tr lists the oracle's candidates in
// the oracle's order with the naive supports, and picks the oracle's
// split: the same composition, the same gain bit for bit, the same
// counts.
func checkAgainstOracle(t *testing.T, what string, tr *candidateTrie, obs []Observation, opts Options) {
	t.Helper()
	want := enumerateCompositions(obs, opts.MaxCompositionLen)
	wantCounts := countSupportsNaive(obs, want, opts)
	got, gotCounts := trieCandidates(tr, obs, opts)
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if compareCompositions(got[i], want[i]) != 0 {
			t.Fatalf("%s: candidate %d is %v, oracle %v", what, i, got[i], want[i])
		}
		if gotCounts[i] != wantCounts[i] {
			t.Fatalf("%s: candidate %v counts %+v, oracle %+v", what, want[i], gotCounts[i], wantCounts[i])
		}
	}
	c, gain, in := tr.bestComposition(obs, opts)
	wc, wgain, win := oracleBest(obs, opts)
	if (c == nil) != (wc == nil) {
		t.Fatalf("%s: best %v, oracle %v", what, c, wc)
	}
	if c != nil && compareCompositions(*c, *wc) != 0 {
		t.Fatalf("%s: best %v, oracle %v", what, *c, *wc)
	}
	if math.Float64bits(gain) != math.Float64bits(wgain) || in != win {
		t.Fatalf("%s: best gain %v counts %+v, oracle %v %+v", what, gain, in, wgain, win)
	}
}

// mixedSignLabels lists three variations with every pair of magnitude
// codes in [-2, 2]. Within one variation a real alphabet's codes share a
// sign, so only codes like these, which core accepts all the same, tell
// the unsigned byte order of Composition.Key from the signed order.
func mixedSignLabels() []pattern.Label {
	var out []pattern.Label
	for _, v := range []pattern.Variation{pattern.PP, pattern.PN, pattern.CST} {
		for a := -2; a <= 2; a++ {
			for b := -2; b <= 2; b++ {
				out = append(out, lbl(v, a, b))
			}
		}
	}
	return out
}

// randomAlphabet draws 2 to 9 distinct labels, half the time from the
// alphabet of a random δ in [1, 4] and otherwise from mixedSignLabels.
func randomAlphabet(rng *rand.Rand) []pattern.Label {
	all := mixedSignLabels()
	if rng.Intn(2) == 0 {
		all = pattern.NewConfig(rng.Intn(4) + 1).Alphabet()
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:min(rng.Intn(8)+2, len(all))]
}

// randomObservations builds ω-windows over a random label sequence in
// one of three shapes: a sliding pool as Windows produces it, isolated
// windows with fresh backing arrays, or a mix — an order-preserving
// subset of the pool (as partitioning leaves a child node) with some
// windows replaced by isolated copies. Classes are random per window.
func randomObservations(rng *rand.Rand, shape string, omega int, alphabet []pattern.Label) []Observation {
	seq := make([]pattern.Label, omega+rng.Intn(40))
	for i := range seq {
		seq[i] = alphabet[rng.Intn(len(alphabet))]
	}
	var obs []Observation
	for start := 0; start+omega <= len(seq); start++ {
		o := Observation{Labels: seq[start : start+omega], Start: start}
		if rng.Intn(4) == 0 {
			o.Class = Anomaly
		}
		switch {
		case shape == "isolated" || shape == "mixed" && rng.Intn(5) == 0:
			o.Labels = append([]pattern.Label(nil), o.Labels...)
		case shape == "mixed" && rng.Intn(4) == 0:
			continue
		}
		obs = append(obs, o)
	}
	return obs
}

// subset returns an order-preserving random subset of obs, the shape a
// tree node's share of the pool takes after partitioning.
func subset(rng *rand.Rand, obs []Observation) []Observation {
	var out []Observation
	for _, o := range obs {
		if rng.Intn(3) > 0 {
			out = append(out, o)
		}
	}
	return out
}

// The candidate trie must reproduce the string-keyed oracle exactly:
// candidate list and order, per-candidate supports, and the chosen split.
// One trie per input is reused across a random subset as well, as Build
// reuses it across the nodes of one induction.
func TestCandidateTrieMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		shape := []string{"sliding", "isolated", "mixed"}[trial%3]
		omega := rng.Intn(12) + 1
		obs := randomObservations(rng, shape, omega, randomAlphabet(rng))
		tr := newCandidateTrie(obs)
		part := subset(rng, obs)
		for _, maxLen := range []int{0, 1, 3, omega + 1} {
			for _, mode := range []MatchMode{MatchContiguous, MatchSubsequence} {
				opts := Options{MaxCompositionLen: maxLen, Match: mode, Parallelism: 2}
				what := fmt.Sprintf("trial %d %s omega=%d maxLen=%d %v", trial, shape, omega, maxLen, mode)
				checkAgainstOracle(t, what+" pool", tr, obs, opts)
				if len(part) > 0 {
					checkAgainstOracle(t, what+" subset", tr, part, opts)
				}
			}
		}
	}
}

// FuzzBestComposition makes the oracle comparison on fuzzed inputs. Each
// byte of data places one label (its low three bits pick one of eight,
// with both signs of magnitude code under one variation) and describes
// the window starting there: bit 5 marks it anomalous, bit 6 gives it a
// fresh backing array (breaking the sliding run), bit 7 drops it.
func FuzzBestComposition(f *testing.F) {
	f.Add([]byte{0x21, 0x02, 0x43, 0x01, 0x22, 0x03, 0x01, 0x02}, uint8(3), int8(0), false)
	f.Add([]byte{0x20, 0x20, 0x00, 0x00, 0x61, 0x01, 0x81, 0x21, 0x00, 0x04}, uint8(4), int8(2), true)
	f.Add([]byte{0x25, 0x05, 0x05, 0x05, 0x25, 0x05}, uint8(1), int8(-1), false)
	pick := []pattern.Label{
		lbl(pattern.PP, 1, -1), lbl(pattern.PP, -1, 1), lbl(pattern.PP, 0, 2), lbl(pattern.PP, -2, 0),
		lbl(pattern.PN, -1, 1), lbl(pattern.PN, 1, -2), lbl(pattern.CST, 0, 0), lbl(pattern.VP, 1, -1),
	}
	f.Fuzz(func(t *testing.T, data []byte, omegaRaw uint8, maxLen int8, subseq bool) {
		if len(data) > 96 {
			data = data[:96]
		}
		omega := int(omegaRaw%10) + 1
		if len(data) < omega {
			return
		}
		seq := make([]pattern.Label, len(data))
		for i, b := range data {
			seq[i] = pick[b&7]
		}
		var obs []Observation
		for start := 0; start+omega <= len(seq); start++ {
			b := data[start]
			if b&0x80 != 0 {
				continue
			}
			o := Observation{Labels: seq[start : start+omega], Start: start}
			if b&0x20 != 0 {
				o.Class = Anomaly
			}
			if b&0x40 != 0 {
				o.Labels = append([]pattern.Label(nil), o.Labels...)
			}
			obs = append(obs, o)
		}
		if len(obs) == 0 {
			return
		}
		opts := Options{MaxCompositionLen: int(maxLen), Parallelism: 1}
		if subseq {
			opts.Match = MatchSubsequence
		}
		checkAgainstOracle(t, "fuzz", newCandidateTrie(obs), obs, opts)
	})
}

// The tie-break order is the key order: before agrees with
// compareCompositions on every pair of candidates, over labels on which
// the unsigned byte order and the signed order disagree.
func TestCandidateOrderIsKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := mixedSignLabels()
	obs := make([]Observation, 20)
	for i := range obs {
		labels := make([]pattern.Label, 6)
		for j := range labels {
			labels[j] = alphabet[rng.Intn(len(alphabet))]
		}
		obs[i] = Observation{Labels: labels, Class: Anomaly}
	}
	tr := newCandidateTrie(obs)
	tr.candidates(obs, 0)
	if len(tr.nodes) < 100 {
		t.Fatalf("only %d candidates", len(tr.nodes)-1)
	}
	for a := int32(1); int(a) < len(tr.nodes); a++ {
		for b := int32(1); int(b) < len(tr.nodes); b++ {
			want := compareCompositions(tr.composition(obs, a), tr.composition(obs, b)) < 0
			if got := tr.before(obs, a, b); got != want {
				t.Fatalf("before(%v, %v) = %v, want %v", tr.composition(obs, a), tr.composition(obs, b), got, want)
			}
		}
	}
}

// bestCompositionAllocSlack bounds how many more allocations scoring a
// node with ten times the candidates may make: the trie's buffers are
// reused across calls, so a call allocates the winning composition and,
// for the larger input, at most a few geometric buffer growths. One
// allocation per candidate would add thousands.
const bestCompositionAllocSlack = 4

// Scoring a tree node allocates per node, not per candidate: neither the
// enumeration nor the counting builds a key, map entry or slice per
// candidate.
func TestBestCompositionAllocatesPerNodeNotPerCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	alphabet := pattern.NewConfig(3).Alphabet()
	seq := make([]pattern.Label, 4000)
	for i := range seq {
		seq[i] = alphabet[rng.Intn(len(alphabet))]
	}
	anoms := make([]bool, len(seq)+2)
	for i := 0; i < len(anoms); i += 100 {
		anoms[i] = true
	}
	obs, err := Windows(seq, anoms, 20)
	if err != nil {
		t.Fatal(err)
	}
	small, large := obs[:400], obs
	tr := newCandidateTrie(obs)
	tr.candidates(small, 0)
	nSmall := len(tr.nodes) - 1
	tr.candidates(large, 0)
	nLarge := len(tr.nodes) - 1
	if nLarge < 9*nSmall {
		t.Fatalf("large input has %d candidates, small %d; want about 10×", nLarge, nSmall)
	}
	s := testing.AllocsPerRun(5, func() { tr.bestComposition(small, Options{}) })
	l := testing.AllocsPerRun(5, func() { tr.bestComposition(large, Options{}) })
	if l > s+bestCompositionAllocSlack {
		t.Fatalf("%v allocations for %d candidates, %v for %d; want at most %d more",
			l, nLarge, s, nSmall, bestCompositionAllocSlack)
	}
}
