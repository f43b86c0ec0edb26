package core

import (
	"iter"
	"slices"

	"cdt/internal/pattern"
)

// candidateTrie holds a tree node's split candidates — every distinct
// contiguous composition of its anomalous observations, the pool of
// list_of_all_possible_compositions (Algorithm 1, line 6) — as one flat
// trie over dense label ids. Node 0 is the root (the empty composition);
// every other node is one candidate, the labels on its root path, so no
// candidate is ever rendered to a key, hashed or sorted. Children live in
// a node×width transition table where 0 means "no child" (the root is
// nobody's child).
//
// Build keeps one trie for the whole induction: each bestComposition
// call resets it and reuses its buffers, so scoring a node allocates
// nothing per candidate.
type candidateTrie struct {
	in       *Interner
	width    int
	children []int32
	nodes    []trieNode
	// Buffers reused across calls: the current run's label ids in series
	// space and its anomalous-window prefix sums.
	ids, anom []int32
}

// trieNode is one candidate: where it occurs among the observations
// being split (obs[obs].Labels[off:off+len], an anomalous window's
// labels) and its support, accumulated by countContiguous or
// countSubsequence.
type trieNode struct {
	obs, off, len int32
	counts        ClassCounts
	// covered is the coverage cursor of countRun: the last window index
	// of the current run already credited, offset by the run's stamp.
	covered int
}

// newCandidateTrie returns an empty trie whose label ids cover the labels
// of obs's anomalous windows, the only labels a candidate can hold;
// other labels get id -1. bestComposition accepts any subset of obs (a
// tree node's share of the pool).
func newCandidateTrie(obs []Observation) *candidateTrie {
	in := NewInterner(anomalousLabels(obs))
	return &candidateTrie{in: in, width: in.N()}
}

// anomalousLabels yields the labels of obs's anomalous windows once each
// in series space: an anomalous window sliding one position past an
// anomalous predecessor contributes only its last label.
func anomalousLabels(obs []Observation) iter.Seq[[]pattern.Label] {
	return func(yield func([]pattern.Label) bool) {
		for i := range obs {
			if obs[i].Class != Anomaly {
				continue
			}
			ls := obs[i].Labels
			if i > 0 && obs[i-1].Class == Anomaly && SlidingAdjacent(obs[i-1].Labels, ls) {
				ls = ls[len(ls)-1:]
			}
			if !yield(ls) {
				return
			}
		}
	}
}

// slidingRuns yields the [lo, hi) bounds of the maximal runs of
// consecutive sliding windows in obs (see SlidingAdjacent); an isolated
// window is a run of one.
func slidingRuns(obs []Observation) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for lo := 0; lo < len(obs); {
			hi := lo + 1
			for hi < len(obs) && SlidingAdjacent(obs[hi-1].Labels, obs[hi].Labels) {
				hi++
			}
			if !yield(lo, hi) {
				return
			}
			lo = hi
		}
	}
}

// bestComposition scores every candidate composition of obs (Algorithm 1
// lines 6-15) and returns the one with the highest information gain, its
// gain and the class counts of the observations it matches. Ties resolve
// to the candidate first in the deterministic candidate order (before),
// the one the strict ">" of line 11 keeps when the candidates are
// scanned in that order. Only candidates tying the best gain so far are
// compared, so nothing is sorted.
//
// For the default contiguous ⊆o, supports are counted on the candidate
// trie itself in one series-space pass (countContiguous). Subsequence
// matching runs the candidates through SubseqNFA passes
// (countSubsequenceSupports).
func (t *candidateTrie) bestComposition(obs []Observation, opts Options) (*Composition, float64, ClassCounts) {
	t.candidates(obs, opts.MaxCompositionLen)
	if len(t.nodes) == 1 {
		return nil, 0, ClassCounts{}
	}
	if opts.Match == MatchContiguous {
		t.countContiguous(obs)
	} else {
		t.countSubsequence(obs, opts)
	}
	parent := Count(obs)
	best, bestGain := int32(0), 0.0
	for n := int32(1); int(n) < len(t.nodes); n++ {
		in := t.nodes[n].counts
		out := ClassCounts{Normal: parent.Normal - in.Normal, Anomaly: parent.Anomaly - in.Anomaly}
		g := opts.Criterion.InformationGain(parent, in, out)
		if g > bestGain || g == bestGain && best != 0 && t.before(obs, n, best) {
			bestGain = g
			best = n
		}
	}
	if best == 0 {
		return nil, 0, ClassCounts{}
	}
	c := t.composition(obs, best)
	return &c, bestGain, t.nodes[best].counts
}

// before reports whether candidate a precedes candidate b in the
// deterministic candidate order: shorter compositions first (ties in
// gain resolve toward simpler, more interpretable splits), then by the
// unsigned byte order of the labels' (Var, Alpha, Beta) — the order of
// their Composition.Key strings, compared without building them.
func (t *candidateTrie) before(obs []Observation, a, b int32) bool {
	if la, lb := t.nodes[a].len, t.nodes[b].len; la != lb {
		return la < lb
	}
	ca, cb := t.composition(obs, a).Labels, t.composition(obs, b).Labels
	for i := range ca {
		x, y := ca[i], cb[i]
		switch {
		case x.Var != y.Var:
			return byte(x.Var) < byte(y.Var)
		case x.Alpha != y.Alpha:
			return byte(x.Alpha) < byte(y.Alpha)
		case x.Beta != y.Beta:
			return byte(x.Beta) < byte(y.Beta)
		}
	}
	return false
}

// candidates resets the trie and inserts every distinct contiguous
// composition of length [1, maxLen] (maxLen <= 0: up to ω) occurring in
// an anomalous observation of obs: afterwards nodes 1..len(t.nodes)-1
// are the candidates.
//
// Each (position, length) pair the insertion visits adds at most one
// node, so the buffers are sized for that many up front. A node's
// candidates are a subset of its parent's, so in one induction only the
// root's call allocates, and no call copies a grown table.
func (t *candidateTrie) candidates(obs []Observation, maxLen int) {
	bound := 1
	for lo, hi := range slidingRuns(obs) {
		for _, n := range candidateSpans(obs[lo:hi], maxLen) {
			bound += n
		}
	}
	t.nodes = slices.Grow(t.nodes[:0], bound)
	t.children = slices.Grow(t.children[:0], bound*t.width)
	t.add(0, 0, 0)
	for lo, hi := range slidingRuns(obs) {
		run := obs[lo:hi]
		t.load(run)
		omega := len(run[0].Labels)
		for p, n := range candidateSpans(run, maxLen) {
			node := int32(0)
			for l := 1; l <= n; l++ {
				slot := int(node)*t.width + int(t.ids[p+l-1])
				next := t.children[slot]
				if next == 0 {
					// Any window of [p+l-ω, p] holds the occurrence.
					j := max(p+l-omega, 0)
					next = t.add(int32(lo+j), int32(p-j), int32(l))
					t.children[slot] = next
				}
				node = next
			}
		}
	}
}

// candidateSpans yields each position p of a sliding run's series-space
// sequence that starts a candidate, with how many lengths do. The
// substring of length l at p lies in windows [p+l-ω, p], so it is a
// candidate exactly when the last anomalous window at or before p is at
// least p+l-ω. Longer lengths only narrow that range, so they run from 1
// up to a per-position limit. An isolated window is a run of one.
func candidateSpans(run []Observation, maxLen int) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		omega := len(run[0].Labels)
		if maxLen <= 0 || maxLen > omega {
			maxLen = omega
		}
		last := -1
		for p := 0; p < len(run)+omega-1; p++ {
			if p < len(run) && run[p].Class == Anomaly {
				last = p
			}
			if n := min(maxLen, last+omega-p); last >= 0 && n > 0 && !yield(p, n) {
				return
			}
		}
	}
}

// add appends a node with an empty child row and returns its index.
func (t *candidateTrie) add(obs, off, n int32) int32 {
	t.nodes = append(t.nodes, trieNode{obs: obs, off: off, len: n})
	row := len(t.children)
	t.children = slices.Grow(t.children, t.width)[:row+t.width]
	clear(t.children[row:])
	return int32(len(t.nodes) - 1)
}

// load lays a run of sliding windows out in series space: t.ids gets the
// label ids of the run's sequence (numWindows+ω-1 labels; window j is
// ids[j:j+ω]) and t.anom the prefix sums of its anomalous windows.
func (t *candidateTrie) load(run []Observation) {
	omega := len(run[0].Labels)
	t.ids = t.ids[:0]
	for _, l := range run[0].Labels {
		t.ids = append(t.ids, t.in.ID(l))
	}
	for j := 1; j < len(run); j++ {
		t.ids = append(t.ids, t.in.ID(run[j].Labels[omega-1]))
	}
	t.anom = append(t.anom[:0], 0)
	for j := range run {
		a := t.anom[j]
		if run[j].Class == Anomaly {
			a++
		}
		t.anom = append(t.anom, a)
	}
}

// countContiguous adds to every candidate's counts (zero since
// candidates) the class counts of the observations of obs containing it
// as a substring. This is the training hot path — it runs once per tree
// node per fit, over every pooled window.
//
// Each maximal sliding run is scanned in series space: every substring
// occurrence is found once in the run's label sequence and credited to
// the whole range of windows containing it, O(positions · depth) instead
// of O(windows · ω · depth). An isolated window is a run of one. Each
// (candidate, window) pair is counted at most once.
func (t *candidateTrie) countContiguous(obs []Observation) {
	stamp := 0
	for lo, hi := range slidingRuns(obs) {
		t.load(obs[lo:hi])
		t.countRun(hi-lo, len(obs[lo].Labels), stamp)
		stamp += hi - lo + 1
	}
}

// countRun counts supports over one loaded run of numWin windows. A
// candidate occurrence at sequence position p with length l <= ω is
// contained in windows j ∈ [p+l-ω, p] ∩ [0, numWin-1], never empty; per
// candidate, those ranges arrive with non-decreasing endpoints, so a
// covered-until cursor (stamped so that cursors left by earlier runs read
// as stale) unions them, and the anomaly prefix sums convert each fresh
// range to class counts in O(1).
func (t *candidateTrie) countRun(numWin, omega, stamp int) {
	for p := range t.ids {
		node := int32(0)
		winHi := min(p, numWin-1)
		for k := p; k < len(t.ids); k++ {
			id := t.ids[k]
			if id < 0 {
				break
			}
			node = t.children[int(node)*t.width+int(id)]
			if node == 0 {
				break
			}
			winLo := max(k+1-omega, 0)
			c := &t.nodes[node]
			// Union with the windows already credited in this run.
			if seen := c.covered - stamp - 1; seen >= winLo {
				winLo = seen + 1
				if winLo > winHi {
					continue
				}
			}
			c.covered = stamp + 1 + winHi
			anom := int(t.anom[winHi+1] - t.anom[winLo])
			c.counts.Anomaly += anom
			c.counts.Normal += winHi - winLo + 1 - anom
		}
	}
}

// countSubsequence sets every candidate's counts under the
// gapped-subsequence ⊆o.
func (t *candidateTrie) countSubsequence(obs []Observation, opts Options) {
	comps := make([]Composition, len(t.nodes)-1)
	for i := range comps {
		comps[i] = t.composition(obs, int32(i+1))
	}
	for i, cc := range countSubsequenceSupports(obs, comps, opts) {
		t.nodes[i+1].counts = cc
	}
}

// composition returns candidate n's composition. Its labels alias the
// observation it was found in, as the observations alias corpus memory:
// nothing is copied.
func (t *candidateTrie) composition(obs []Observation, n int32) Composition {
	c := t.nodes[n]
	return Composition{Labels: obs[c.obs].Labels[c.off : c.off+c.len]}
}
