package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// oracleBest is candidateTrie.best read off the oracle: the first candidate
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

// poolSupports builds the trie of obs under opts and counts obs over it,
// as Build does at the root.
func poolSupports(obs []Observation, opts Options) (*candidateTrie, supports) {
	tr := newCandidateTrie(obs, opts)
	return tr, tr.count(tr.runs, nil)
}

// trieCandidates lists the candidates s marks live in the candidate
// order the trie's tie-break uses (before), with their supports.
func trieCandidates(tr *candidateTrie, s supports) ([]Composition, []ClassCounts) {
	var order []int32
	for n := int32(1); int(n) < len(tr.nodes); n++ {
		if s.contig[n].anomaly > 0 {
			order = append(order, n)
		}
	}
	sort.Slice(order, func(i, j int) bool { return tr.before(order[i], order[j]) })
	comps := make([]Composition, len(order))
	counts := make([]ClassCounts, len(order))
	for i, n := range order {
		comps[i] = tr.composition(n)
		counts[i] = s.match[n].classCounts()
	}
	return comps, counts
}

// checkAgainstOracle fails t unless s, the supports of obs (one tree
// node's observations) over tr, lists the oracle's candidates in the
// oracle's order with the naive supports, and scores to the oracle's
// split: the same composition, the same gain bit for bit, the same
// counts.
func checkAgainstOracle(t *testing.T, what string, tr *candidateTrie, s supports, obs []Observation, opts Options) {
	t.Helper()
	want := enumerateCompositions(obs, opts.MaxCompositionLen)
	wantCounts := countSupportsNaive(obs, want, opts)
	got, gotCounts := trieCandidates(tr, s)
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
	n, gain, in := tr.best(s, Count(obs))
	wc, wgain, win := oracleBest(obs, opts)
	if (n == 0) != (wc == nil) {
		t.Fatalf("%s: best candidate %d, oracle %v", what, n, wc)
	}
	if c := tr.composition(n); n != 0 && compareCompositions(c, *wc) != 0 {
		t.Fatalf("%s: best %v, oracle %v", what, c, *wc)
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

// splitSpans partitions the windows of runs, a pool's sliding runs, at
// random into two sorted lists of maximal spans, the shape a tree
// node's windows take after a split.
func splitSpans(rng *rand.Rand, runs []span) (part, rest []span) {
	for _, r := range runs {
		for i := r.lo; i < r.hi; i++ {
			dst := &rest
			if rng.Intn(3) > 0 {
				dst = &part
			}
			if n := len(*dst); i > r.lo && n > 0 && (*dst)[n-1].hi == i {
				(*dst)[n-1].hi++
			} else {
				*dst = append(*dst, span{i, i + 1})
			}
		}
	}
	return part, rest
}

// windowsOf lists the windows of spans over obs in order.
func windowsOf(obs []Observation, spans []span) []Observation {
	var out []Observation
	for _, s := range spans {
		out = append(out, obs[s.lo:s.hi]...)
	}
	return out
}

// The candidate trie must reproduce the string-keyed oracle exactly:
// candidate list and order, per-candidate supports, and the chosen split.
// As in Build, one trie over the pool scores a random span subset of it,
// counted directly, and the rest, whose supports are the pool's minus
// the part's: subtracted array from array, or tallied out of the pool's
// arrays.
func TestCandidateTrieMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		shape := []string{"sliding", "isolated", "mixed"}[trial%3]
		omega := rng.Intn(12) + 1
		obs := randomObservations(rng, shape, omega, randomAlphabet(rng))
		if len(obs) == 0 {
			continue
		}
		part, rest := splitSpans(rng, newCandidateTrie(obs, Options{}).runs)
		partObs, restObs := windowsOf(obs, part), windowsOf(obs, rest)
		for _, maxLen := range []int{0, 1, 3, omega + 1} {
			for _, mode := range []MatchMode{MatchContiguous, MatchSubsequence} {
				opts := Options{MaxCompositionLen: maxLen, Match: mode, Parallelism: 2}
				what := fmt.Sprintf("trial %d %s omega=%d maxLen=%d %v", trial, shape, omega, maxLen, mode)
				tr, pool := poolSupports(obs, opts)
				checkAgainstOracle(t, what+" pool", tr, pool, obs, opts)
				s := tr.count(part, &pool)
				checkAgainstOracle(t, what+" part", tr, s, partObs, opts)
				tr.subtract(pool, s)
				checkAgainstOracle(t, what+" rest", tr, pool, restObs, opts)
				pool = tr.count(tr.runs, nil)
				tr.tally(part, &pool, pool, -1)
				checkAgainstOracle(t, what+" rest tallied out", tr, pool, restObs, opts)
			}
		}
	}
}

// fuzzObservations decodes a fuzz input into windows of width
// omegaRaw%10+1. Each byte of data places one label (its low three bits
// pick one of eight, with both signs of magnitude code under one
// variation) and describes the window starting there: bit 5 marks it
// anomalous, bit 6 gives it a fresh backing array (breaking the sliding
// run), bit 7 drops it.
func fuzzObservations(data []byte, omegaRaw uint8) []Observation {
	pick := []pattern.Label{
		lbl(pattern.PP, 1, -1), lbl(pattern.PP, -1, 1), lbl(pattern.PP, 0, 2), lbl(pattern.PP, -2, 0),
		lbl(pattern.PN, -1, 1), lbl(pattern.PN, 1, -2), lbl(pattern.CST, 0, 0), lbl(pattern.VP, 1, -1),
	}
	if len(data) > 96 {
		data = data[:96]
	}
	omega := int(omegaRaw%10) + 1
	if len(data) < omega {
		return nil
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
	return obs
}

// FuzzBestComposition makes the oracle comparison on fuzzed inputs
// (encoded as fuzzObservations reads them).
func FuzzBestComposition(f *testing.F) {
	f.Add([]byte{0x21, 0x02, 0x43, 0x01, 0x22, 0x03, 0x01, 0x02}, uint8(3), int8(0), false)
	f.Add([]byte{0x20, 0x20, 0x00, 0x00, 0x61, 0x01, 0x81, 0x21, 0x00, 0x04}, uint8(4), int8(2), true)
	f.Add([]byte{0x25, 0x05, 0x05, 0x05, 0x25, 0x05}, uint8(1), int8(-1), false)
	f.Fuzz(func(t *testing.T, data []byte, omegaRaw uint8, maxLen int8, subseq bool) {
		obs := fuzzObservations(data, omegaRaw)
		if len(obs) == 0 {
			return
		}
		opts := Options{MaxCompositionLen: int(maxLen), Parallelism: 1}
		if subseq {
			opts.Match = MatchSubsequence
		}
		tr, pool := poolSupports(obs, opts)
		checkAgainstOracle(t, "fuzz", tr, pool, obs, opts)
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
	tr := newCandidateTrie(obs, Options{})
	if len(tr.nodes) < 100 {
		t.Fatalf("only %d candidates", len(tr.nodes)-1)
	}
	for a := int32(1); int(a) < len(tr.nodes); a++ {
		for b := int32(1); int(b) < len(tr.nodes); b++ {
			want := compareCompositions(tr.composition(a), tr.composition(b)) < 0
			if got := tr.before(a, b); got != want {
				t.Fatalf("before(%v, %v) = %v, want %v", tr.composition(a), tr.composition(b), got, want)
			}
		}
	}
}

// bestCompositionAllocSlack bounds how many more allocations building
// the trie of, or scoring, a pool with ten times the candidates may
// make. Every buffer is sized up front and support arrays are recycled,
// so building allocates a fixed set of buffers and scoring only the
// winning composition. One allocation per candidate would add
// thousands.
const bestCompositionAllocSlack = 4

// Building the candidate trie and scoring a tree node allocate per node,
// not per candidate: neither the enumeration nor the counting builds a
// key, map entry or slice per candidate.
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
	nSmall := len(newCandidateTrie(small, Options{}).nodes) - 1
	nLarge := len(newCandidateTrie(large, Options{}).nodes) - 1
	if nLarge < 9*nSmall {
		t.Fatalf("large input has %d candidates, small %d; want about 10×", nLarge, nSmall)
	}
	check := func(what string, small, large func()) {
		t.Helper()
		s := testing.AllocsPerRun(5, small)
		l := testing.AllocsPerRun(5, large)
		if l > s+bestCompositionAllocSlack {
			t.Fatalf("%s: %v allocations for %d candidates, %v for %d; want at most %d more",
				what, l, nLarge, s, nSmall, bestCompositionAllocSlack)
		}
	}
	check("building the trie",
		func() { newCandidateTrie(small, Options{}) },
		func() { newCandidateTrie(large, Options{}) })
	score := func(pool []Observation) func() {
		tr := newCandidateTrie(pool, Options{})
		return func() {
			s := tr.count(tr.runs, nil)
			tr.best(s, Count(pool))
			tr.release(s)
		}
	}
	check("scoring the root", score(small), score(large))
}

// trieBytesWidthRatio bounds how many times the bytes of building the
// trie of a pool whose anomalous windows hold three times the distinct
// labels may be of those of a pool with the same insertion bound. The
// nodes, sized by that bound, dominate; only the rows of the nodes with
// two or more children, sized by the start positions, follow the
// width. Child tables of bound × width entries would make it about 2.
const trieBytesWidthRatio = 1.25

// Building the candidate trie allocates bytes by its insertion bound,
// not by the bound times the label width: a pool drawing from three
// times the labels costs about the same. The fewest bytes over three
// builds count, so that an allocation elsewhere in the process cannot
// fail the test.
func TestCandidateTrieAllocatesBytesByBoundNotWidth(t *testing.T) {
	alphabet := pattern.NewConfig(3).Alphabet()
	anoms := make([]bool, 4000+2)
	for i := 0; i < len(anoms); i += 100 {
		anoms[i] = true
	}
	pool := func(labels int) []Observation {
		rng := rand.New(rand.NewSource(53))
		seq := make([]pattern.Label, len(anoms)-2)
		for i := range seq {
			seq[i] = alphabet[rng.Intn(labels)]
		}
		obs, err := Windows(seq, anoms, 20)
		if err != nil {
			t.Fatal(err)
		}
		return obs
	}
	build := func(obs []Observation) (*candidateTrie, uint64) {
		var tr *candidateTrie
		var fewest uint64
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tr = newCandidateTrie(obs, Options{})
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; fewest == 0 || got < fewest {
				fewest = got
			}
		}
		return tr, fewest
	}
	narrow, nb := build(pool(10))
	wide, wb := build(pool(30))
	if cap(narrow.nodes) != cap(wide.nodes) || 2*wide.width < 5*narrow.width {
		t.Fatalf("insertion bounds %d and %d, widths %d and %d; want one bound and about 3× the width",
			cap(narrow.nodes), cap(wide.nodes), narrow.width, wide.width)
	}
	if ratio := float64(wb) / float64(nb); ratio > trieBytesWidthRatio {
		t.Fatalf("bound %d: %d bytes at width %d, %d at width %d (%.2f×), want at most %.2f×",
			cap(narrow.nodes), nb, narrow.width, wb, wide.width, ratio, trieBytesWidthRatio)
	}
}

// oracleTree is Algorithm 1 read directly: every node is scored by
// oracleBest over its own observations and partitioned by MatchedBy.
func oracleTree(obs []Observation, opts Options, depth int) *Node {
	n := &Node{Counts: Count(obs), Depth: depth}
	if n.Pure() || opts.MaxDepth > 0 && depth >= opts.MaxDepth {
		return n
	}
	c, gain, _ := oracleBest(obs, opts)
	if c == nil || gain <= opts.MinGain {
		return n
	}
	var in, out []Observation
	for _, o := range obs {
		if c.MatchedBy(o.Labels, opts.Match) {
			in = append(in, o)
		} else {
			out = append(out, o)
		}
	}
	n.Composition = c
	n.ChildTrue = oracleTree(in, opts, depth+1)
	n.ChildFalse = oracleTree(out, opts, depth+1)
	return n
}

// checkTree fails t at the first node where got differs from the oracle
// tree want: composition, class counts, depth or leafness.
func checkTree(t *testing.T, what, path string, got, want *Node) {
	t.Helper()
	switch {
	case got.Depth != want.Depth || got.Counts != want.Counts || got.Leaf() != want.Leaf():
		t.Fatalf("%s: node %q: depth %d counts %+v leaf %v, oracle depth %d counts %+v leaf %v",
			what, path, got.Depth, got.Counts, got.Leaf(), want.Depth, want.Counts, want.Leaf())
	case got.Leaf():
		return
	case compareCompositions(*got.Composition, *want.Composition) != 0:
		t.Fatalf("%s: node %q splits on %v, oracle %v", what, path, *got.Composition, *want.Composition)
	}
	checkTree(t, what, path+"T", got.ChildTrue, want.ChildTrue)
	checkTree(t, what, path+"F", got.ChildFalse, want.ChildFalse)
}

// checkBuild fails t unless Build grows the oracle's tree from obs.
func checkBuild(t *testing.T, what string, obs []Observation, opts Options) {
	t.Helper()
	tree, err := Build(obs, opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	checkTree(t, what, "", tree.Root, oracleTree(obs, opts, 0))
}

// Build, which counts each split's smaller child and derives its sibling
// by subtraction, must grow the tree of the direct reading node for
// node, over every input shape and option that changes which candidates
// a node has or which one wins.
func TestBuildMatchesOracleTree(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 1500; trial++ {
		shape := []string{"sliding", "isolated", "mixed"}[trial%3]
		omega := rng.Intn(10) + 1
		obs := randomObservations(rng, shape, omega, randomAlphabet(rng))
		if len(obs) == 0 {
			continue
		}
		for _, mode := range []MatchMode{MatchContiguous, MatchSubsequence} {
			opts := Options{
				Match:             mode,
				MaxCompositionLen: []int{0, 2}[rng.Intn(2)],
				MaxDepth:          []int{0, 1, 3}[rng.Intn(3)],
				MinGain:           []float64{0, 0.01}[rng.Intn(2)],
				Criterion:         []SplitCriterion{Gini, Entropy}[rng.Intn(2)],
				Parallelism:       rng.Intn(2) + 1,
			}
			checkBuild(t, fmt.Sprintf("trial %d %s omega=%d %+v", trial, shape, omega, opts), obs, opts)
		}
	}
}

// FuzzBuild makes the whole-tree oracle comparison on fuzzed inputs
// (encoded as fuzzObservations reads them). The low two bits of knobs
// pick MaxDepth 0..3, bit 2 the entropy criterion, bit 3 MinGain 0.01.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{0x21, 0x02, 0x43, 0x01, 0x22, 0x03, 0x01, 0x02}, uint8(3), int8(0), false, uint8(0))
	f.Add([]byte{0x20, 0x20, 0x00, 0x00, 0x61, 0x01, 0x81, 0x21, 0x00, 0x04}, uint8(4), int8(2), true, uint8(0x06))
	f.Add([]byte{0x25, 0x05, 0x05, 0x05, 0x25, 0x05}, uint8(1), int8(-1), false, uint8(0x0b))
	f.Fuzz(func(t *testing.T, data []byte, omegaRaw uint8, maxLen int8, subseq bool, knobs uint8) {
		obs := fuzzObservations(data, omegaRaw)
		if len(obs) == 0 {
			return
		}
		opts := Options{MaxCompositionLen: int(maxLen), MaxDepth: int(knobs & 3), Parallelism: 1}
		if subseq {
			opts.Match = MatchSubsequence
		}
		if knobs&4 != 0 {
			opts.Criterion = Entropy
		}
		if knobs&8 != 0 {
			opts.MinGain = 0.01
		}
		checkBuild(t, "fuzz", obs, opts)
	})
}
