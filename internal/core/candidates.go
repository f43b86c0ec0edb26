package core

import (
	"iter"
	"slices"

	"cdt/internal/pattern"
)

// candidateTrie holds the split candidates of one induction — every
// distinct contiguous composition of the root's anomalous observations,
// the root's list_of_all_possible_compositions (Algorithm 1, line 6) —
// as one flat trie over dense label ids. Node 0 is the root (the empty
// composition); every other node is one candidate, the labels on its
// root path, so no candidate is ever rendered to a key, hashed or
// sorted. Children live in a node×width transition table where 0 means
// "no child" (the root is nobody's child).
//
// A tree node draws its candidates from its own anomalous observations,
// a subset of the root's, so Build builds this one trie and scores every
// node over it: a node's candidates are the trie nodes its supports mark
// live (see supports).
type candidateTrie struct {
	// obs is the pool the trie was built from; candidate occurrences
	// index it.
	obs      []Observation
	opts     Options
	in       *Interner
	width    int
	children []int32
	nodes    []trieNode
	// stamp offsets the coverage cursors of the run being counted; it
	// grows across every run the trie counts, so cursors left by earlier
	// runs, of this call or an earlier one, read as stale.
	stamp int
	// free holds released support arrays for reuse.
	free []supports
	// Buffers reused across runs: the current run's label ids in series
	// space and its anomalous-window prefix sums.
	ids, anom []int32
}

// trieNode is one candidate: where it occurs in the pool
// (obs[obs].Labels[off:off+len], an anomalous window's labels) and its
// coverage cursor for countRun.
type trieNode struct {
	obs, off, len int32
	// covered is the last window index of the current run already
	// credited, offset by the run's stamp.
	covered int
}

// supports holds one tree node's support for every candidate, indexed
// by trie node. A support counts observations, each of which lands in
// exactly one child of a split, so a node's supports are the sum of its
// children's: Build counts the smaller child and subtracts.
type supports struct {
	// match counts, per candidate, the node's observations containing it
	// under Options.Match.
	match []support
	// contig counts them under contiguous matching. A candidate is one of
	// the node's candidates exactly when contig[n].anomaly > 0: one of
	// the node's anomalous observations contains it as a substring. In
	// contiguous mode contig aliases match; in subsequence mode a gapped
	// match inside an anomalous window makes no candidate, so it is a
	// vector of its own.
	contig []support
}

// support is one candidate's class counts in one tree node. Every split
// clears, subtracts or scans whole arrays of them, so they are half the
// width of ClassCounts; a count never exceeds the pool's window count.
type support struct{ normal, anomaly int32 }

func (s support) classCounts() ClassCounts {
	return ClassCounts{Normal: int(s.normal), Anomaly: int(s.anomaly)}
}

// newCandidateTrie returns the trie of obs's candidates (insert). Label
// ids cover the labels of obs's anomalous windows, the only labels a
// candidate can hold; other labels get id -1.
func newCandidateTrie(obs []Observation, opts Options) *candidateTrie {
	in := NewInterner(anomalousLabels(obs))
	t := &candidateTrie{obs: obs, opts: opts, in: in, width: in.N()}
	t.insert()
	return t
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
			if i > 0 && obs[i-1].Class == Anomaly && slidingAdjacent(obs[i-1].Labels, ls) {
				ls = ls[len(ls)-1:]
			}
			if !yield(ls) {
				return
			}
		}
	}
}

// slidingRuns yields the [lo, hi) bounds of the maximal runs of
// consecutive sliding windows in obs (see slidingAdjacent); an isolated
// window is a run of one.
func slidingRuns(obs []Observation) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for lo := 0; lo < len(obs); {
			hi := lo + 1
			for hi < len(obs) && slidingAdjacent(obs[hi-1].Labels, obs[hi].Labels) {
				hi++
			}
			if !yield(lo, hi) {
				return
			}
			lo = hi
		}
	}
}

// best scores a tree node's candidates (Algorithm 1 lines 6-15) from its
// supports s and class counts parent, and returns the one with the
// highest information gain, its gain and the class counts of the
// observations it matches. Ties resolve to the candidate first in the
// deterministic candidate order (before), the one the strict ">" of
// line 11 keeps when the candidates are scanned in that order. Only
// candidates tying the best gain so far are compared, so nothing is
// sorted.
func (t *candidateTrie) best(s supports, parent ClassCounts) (*Composition, float64, ClassCounts) {
	best, bestGain := int32(0), 0.0
	imp := t.opts.Criterion.Impurity(parent)
	for n := int32(1); int(n) < len(t.nodes); n++ {
		if s.contig[n].anomaly == 0 {
			continue
		}
		in := s.match[n].classCounts()
		out := ClassCounts{Normal: parent.Normal - in.Normal, Anomaly: parent.Anomaly - in.Anomaly}
		g := t.opts.Criterion.gain(imp, parent, in, out)
		if g > bestGain || g == bestGain && best != 0 && t.before(n, best) {
			bestGain = g
			best = n
		}
	}
	if best == 0 {
		return nil, 0, ClassCounts{}
	}
	c := t.composition(best)
	return &c, bestGain, s.match[best].classCounts()
}

// before reports whether candidate a precedes candidate b in the
// deterministic candidate order: shorter compositions first (ties in
// gain resolve toward simpler, more interpretable splits), then by the
// unsigned byte order of the labels' (Var, Alpha, Beta) — the order of
// their Composition.Key strings, compared without building them.
func (t *candidateTrie) before(a, b int32) bool {
	if la, lb := t.nodes[a].len, t.nodes[b].len; la != lb {
		return la < lb
	}
	ca, cb := t.composition(a).Labels, t.composition(b).Labels
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

// insert adds every distinct contiguous composition of length
// [1, opts.MaxCompositionLen] (0: up to ω) occurring in an anomalous
// observation of the pool: afterwards nodes 1..len(t.nodes)-1 are the
// candidates.
//
// Each (position, length) pair the insertion visits adds at most one
// node, so the buffers are sized for that many up front. The run
// buffers are sized for the pool's longest run, which bounds the runs
// of every subset count sees, so counting allocates nothing.
func (t *candidateTrie) insert() {
	maxLen := t.opts.MaxCompositionLen
	bound, longest := 1, 0
	for lo, hi := range slidingRuns(t.obs) {
		longest = max(longest, hi-lo)
		for _, n := range candidateSpans(t.obs[lo:hi], maxLen) {
			bound += n
		}
	}
	t.nodes = make([]trieNode, 0, bound)
	t.children = make([]int32, 0, bound*t.width)
	t.ids = make([]int32, 0, longest+len(t.obs[0].Labels)-1)
	t.anom = make([]int32, 0, longest+1)
	t.add(0, 0, 0)
	for lo, hi := range slidingRuns(t.obs) {
		run := t.obs[lo:hi]
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

// add appends a node with an empty child row and returns its index. The
// trie is built once and never shrinks, so capacity past the table's
// length is still zero.
func (t *candidateTrie) add(obs, off, n int32) int32 {
	t.nodes = append(t.nodes, trieNode{obs: obs, off: off, len: n})
	row := len(t.children)
	t.children = slices.Grow(t.children, t.width)[:row+t.width]
	return int32(len(t.nodes) - 1)
}

// count returns the supports of obs, one tree node's observations, in
// arrays taken from the free list. parent is the supports of the node's
// parent (nil at the root).
func (t *candidateTrie) count(obs []Observation, parent *supports) supports {
	s := t.alloc()
	t.tally(obs, parent, s, 1)
	return s
}

// tally adds sign (1 or -1) times the supports of obs, one tree node's
// observations, to s. parent is the supports of the node's parent (nil
// at the root): subsequence counting scores only the parent's
// candidates, the only ones the node or its sibling can hold, and reads
// them before s changes, so s may be parent itself. Contiguous counting
// credits every candidate the node's observations contain, so its
// supports are exact for all of them.
func (t *candidateTrie) tally(obs []Observation, parent *supports, s supports, sign int32) {
	if t.opts.Match != MatchContiguous {
		t.countSubsequence(obs, parent, s.match, sign)
	}
	t.countContiguous(obs, s.contig, sign)
}

// subtract turns p, a node's supports, into those of one child by
// removing s, the other child's.
func (t *candidateTrie) subtract(p, s supports) {
	sub := func(dst, src []support) {
		for i := range dst {
			dst[i].normal -= src[i].normal
			dst[i].anomaly -= src[i].anomaly
		}
	}
	sub(p.contig, s.contig)
	if t.opts.Match != MatchContiguous {
		sub(p.match, s.match)
	}
}

// alloc returns zeroed supports, reusing released ones when there are
// any.
func (t *candidateTrie) alloc() supports {
	subseq := t.opts.Match != MatchContiguous
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		clear(s.match)
		if subseq {
			clear(s.contig)
		}
		return s
	}
	s := supports{match: make([]support, len(t.nodes))}
	s.contig = s.match
	if subseq {
		s.contig = make([]support, len(t.nodes))
	}
	return s
}

// release returns supports no node needs any more to the free list.
func (t *candidateTrie) release(s supports) {
	if s.match != nil {
		t.free = append(t.free, s)
	}
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

// countContiguous adds to dst, per candidate, sign times the class
// counts of the observations of obs containing it as a substring. This
// is the training hot path: Build runs it over the root's pool and then
// over the smaller child of every split.
//
// Each maximal sliding run is scanned in series space: every substring
// occurrence is found once in the run's label sequence and credited to
// the whole range of windows containing it, O(positions · depth) instead
// of O(windows · ω · depth). An isolated window is a run of one. Each
// (candidate, window) pair is counted at most once.
func (t *candidateTrie) countContiguous(obs []Observation, dst []support, sign int32) {
	for lo, hi := range slidingRuns(obs) {
		t.load(obs[lo:hi])
		t.countRun(hi-lo, len(obs[lo].Labels), dst, sign)
		t.stamp += hi - lo + 1
	}
}

// countRun adds sign times the supports over one loaded run of numWin
// windows to dst. A candidate occurrence at sequence position p with length l <= ω
// is contained in windows j ∈ [p+l-ω, p] ∩ [0, numWin-1], never empty;
// per candidate, those ranges arrive with non-decreasing endpoints, so a
// covered-until cursor (stamped so that cursors left by earlier runs
// read as stale) unions them, and the anomaly prefix sums convert each
// fresh range to class counts in O(1).
func (t *candidateTrie) countRun(numWin, omega int, dst []support, sign int32) {
	stamp := t.stamp
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
			anom := t.anom[winHi+1] - t.anom[winLo]
			d := &dst[node]
			d.anomaly += sign * anom
			d.normal += sign * (int32(winHi-winLo+1) - anom)
		}
	}
}

// countSubsequence adds to dst, for every candidate of parent (every
// candidate when parent is nil), sign times the class counts of the
// observations of obs containing it under the gapped-subsequence ⊆o.
func (t *candidateTrie) countSubsequence(obs []Observation, parent *supports, dst []support, sign int32) {
	var ns []int32
	var comps []Composition
	for n := int32(1); int(n) < len(t.nodes); n++ {
		if parent == nil || parent.contig[n].anomaly > 0 {
			ns = append(ns, n)
			comps = append(comps, t.composition(n))
		}
	}
	for i, cc := range countSubsequenceSupports(obs, comps, t.opts) {
		d := &dst[ns[i]]
		d.normal += sign * int32(cc.Normal)
		d.anomaly += sign * int32(cc.Anomaly)
	}
}

// composition returns candidate n's composition. Its labels alias the
// pool observation it was found in, as the observations alias corpus
// memory: nothing is copied.
func (t *candidateTrie) composition(n int32) Composition {
	c := t.nodes[n]
	return Composition{Labels: t.obs[c.obs].Labels[c.off : c.off+c.len]}
}
