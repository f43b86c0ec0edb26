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
// sorted. Most nodes have at most one child (a composition is usually
// extended by one label only), so each node keeps its first child
// inline and a node gets a dense row of child indices, one per label
// id, only when it gains a second child.
//
// The trie also holds the pool laid out in series space (lay): every
// maximal sliding run's label ids back to back, so a window is a slice
// of them and a run of consecutive windows one longer slice. Insertion,
// counting and splitting all read that layout, and a tree node's
// windows are a sorted list of spans of the pool (see span).
//
// A tree node draws its candidates from its own anomalous observations,
// a subset of the root's, so Build builds this one trie and scores every
// node over it: a node's candidates are the trie nodes its supports mark
// live (see supports).
type candidateTrie struct {
	// obs is the pool the trie was built from; candidate occurrences
	// and spans index it.
	obs   []Observation
	opts  Options
	in    *Interner
	omega int
	width int
	// runs are the pool's maximal sliding runs in order: the root's
	// spans. seqIDs holds each run's label ids (-1 for a label no
	// anomalous window holds) back to back, a run of k windows taking
	// k+ω-1 of them; window i is seqIDs[winAt[i] : winAt[i]+ω].
	// anomBefore[i] counts the anomalous windows of obs[:i].
	runs              []span
	seqIDs            []int32
	winAt, anomBefore []int32
	nodes             []trieNode
	// rows holds the dense child rows, width entries each, of the nodes
	// with two or more children; row 0 stays zero and is the row of
	// every other node, so a lookup there finds no child.
	rows []int32
	// stamp offsets the coverage cursors of the span being counted; it
	// grows across every span the trie counts, so cursors left by
	// earlier spans, of this call or an earlier one, read as stale.
	stamp int
	// free holds released support arrays for reuse.
	free []supports
}

// trieNode is one candidate: where it occurs in the pool
// (obs[obs].Labels[off:off+len], an anomalous window's labels), its
// children and its coverage cursor for countSpan.
type trieNode struct {
	obs, off, len int32
	// first is the first child added and firstID its label id (-1 while
	// the node has no child); row is the node's row in rows, 0 until it
	// gains a second child.
	first, firstID, row int32
	// covered is the last window of the current span already credited,
	// offset by the span's stamp.
	covered int
}

// span is the windows obs[lo:hi] of the pool, all inside one of its
// sliding runs. A tree node's windows are a sorted list of disjoint,
// maximal spans: two spans of one list that touch lie in different
// runs.
type span struct{ lo, hi int32 }

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

// newCandidateTrie lays obs out in series space (lay) and returns the
// trie of its candidates (insert). Label ids cover the labels of obs's
// anomalous windows, the only labels a candidate can hold; other labels
// get id -1.
func newCandidateTrie(obs []Observation, opts Options) *candidateTrie {
	in := NewInterner(anomalousLabels(obs))
	t := &candidateTrie{obs: obs, opts: opts, in: in, omega: len(obs[0].Labels), width: in.N()}
	t.lay()
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

// slidingAdjacent reports whether b is a's window slid one position
// right over the same backing array — the shape Corpus window pooling
// produces.
func slidingAdjacent(a, b []pattern.Label) bool {
	return len(a) == len(b) && len(a) > 1 && &a[1] == &b[0]
}

// lay fills the series-space layout: runs, seqIDs, winAt and
// anomBefore.
func (t *candidateTrie) lay() {
	nRuns, nIDs := 0, 0
	for lo, hi := range slidingRuns(t.obs) {
		nRuns++
		nIDs += hi - lo + t.omega - 1
	}
	t.runs = make([]span, 0, nRuns)
	t.seqIDs = make([]int32, 0, nIDs)
	t.winAt = make([]int32, len(t.obs))
	t.anomBefore = make([]int32, len(t.obs)+1)
	for lo, hi := range slidingRuns(t.obs) {
		t.runs = append(t.runs, span{int32(lo), int32(hi)})
		base := len(t.seqIDs) - lo
		for _, l := range t.obs[lo].Labels {
			t.seqIDs = append(t.seqIDs, t.in.ID(l))
		}
		for i := lo; i < hi; i++ {
			if i > lo {
				t.seqIDs = append(t.seqIDs, t.in.ID(t.obs[i].Labels[t.omega-1]))
			}
			t.winAt[i] = int32(base + i)
		}
	}
	for i := range t.obs {
		t.anomBefore[i+1] = t.anomBefore[i]
		if t.obs[i].Class == Anomaly {
			t.anomBefore[i+1]++
		}
	}
}

// seq returns the label ids of s's windows in series space: window lo+j
// is seq[j : j+ω].
func (t *candidateTrie) seq(s span) []int32 {
	lo := t.winAt[s.lo]
	return t.seqIDs[lo : lo+s.hi-s.lo+int32(t.omega)-1]
}

// best scores a tree node's candidates (Algorithm 1 lines 6-15) from its
// supports s and class counts parent, and returns the one with the
// highest information gain (0 when none gains), its gain and the class
// counts of the observations it matches. Ties resolve to the candidate
// first in the deterministic candidate order (before), the one the
// strict ">" of line 11 keeps when the candidates are scanned in that
// order. Only candidates tying the best gain so far are compared, so
// nothing is sorted.
func (t *candidateTrie) best(s supports, parent ClassCounts) (int32, float64, ClassCounts) {
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
		return 0, 0, ClassCounts{}
	}
	return best, bestGain, s.match[best].classCounts()
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
// The buffers are sized up front, so building allocates a fixed set of
// them. Each (position, length) pair the insertion visits adds at most
// one node. Each start position adds at most one leaf, the end of its
// path, and a trie with k leaves has fewer than k nodes with two or
// more children, so the start positions bound the rows with the zero
// row included.
func (t *candidateTrie) insert() {
	maxLen := t.opts.MaxCompositionLen
	bound, starts := 1, 0
	for _, r := range t.runs {
		for _, n := range candidateSpans(t.obs[r.lo:r.hi], maxLen) {
			bound += n
			starts++
		}
	}
	t.nodes = make([]trieNode, 0, bound)
	t.rows = make([]int32, t.width, max(starts, 1)*t.width)
	t.add(0, 0, 0)
	for _, r := range t.runs {
		seq := t.seq(r)
		for p, n := range candidateSpans(t.obs[r.lo:r.hi], maxLen) {
			node := int32(0)
			for l := 1; l <= n; l++ {
				id := seq[p+l-1]
				next := t.child(node, id)
				if next == 0 {
					// Any window of [p+l-ω, p] holds the occurrence.
					j := max(p+l-t.omega, 0)
					next = t.add(r.lo+int32(j), int32(p-j), int32(l))
					t.link(node, id, next)
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

// add appends a childless node and returns its index.
func (t *candidateTrie) add(obs, off, n int32) int32 {
	t.nodes = append(t.nodes, trieNode{obs: obs, off: off, len: n, firstID: -1})
	return int32(len(t.nodes) - 1)
}

// child returns node's child on label id (>= 0), or 0 when it has none.
func (t *candidateTrie) child(node, id int32) int32 {
	c := &t.nodes[node]
	if c.firstID == id {
		return c.first
	}
	return t.rows[int(c.row)*t.width+int(id)]
}

// link makes next node's child on label id. A second child moves the
// node onto a row of its own; the rows are never shrunk, so a row taken
// from the capacity past rows' length is still zero.
func (t *candidateTrie) link(node, id, next int32) {
	c := &t.nodes[node]
	if c.firstID < 0 {
		c.first, c.firstID = next, id
		return
	}
	if c.row == 0 {
		c.row = int32(len(t.rows) / t.width)
		t.rows = t.rows[:len(t.rows)+t.width]
	}
	t.rows[int(c.row)*t.width+int(id)] = next
}

// count returns the supports of spans, one tree node's windows, in
// arrays taken from the free list. parent is the supports of the node's
// parent (nil at the root).
func (t *candidateTrie) count(spans []span, parent *supports) supports {
	s := t.alloc()
	t.tally(spans, parent, s, 1)
	return s
}

// tally adds sign (1 or -1) times the supports of spans, one tree
// node's windows, to s. parent is the supports of the node's parent
// (nil at the root): subsequence counting scores only the parent's
// candidates, the only ones the node or its sibling can hold, and reads
// them before s changes, so s may be parent itself. Contiguous counting
// credits every candidate the node's windows contain, so its supports
// are exact for all of them.
func (t *candidateTrie) tally(spans []span, parent *supports, s supports, sign int32) {
	if t.opts.Match != MatchContiguous {
		t.countSubsequence(spans, parent, s.match, sign)
	}
	for _, sp := range spans {
		t.countSpan(sp, s.contig, sign)
		t.stamp += int(sp.hi-sp.lo) + 1
	}
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

// countSpan adds to dst sign times, per candidate, the class counts of
// the windows of s containing it as a substring. This is the training
// hot path: Build runs it over the root's runs and then over the
// smaller child of every split.
//
// The span is scanned in series space: every substring occurrence is
// found once in its label sequence and credited to the whole range of
// windows containing it, O(positions · depth) instead of
// O(windows · ω · depth). An occurrence at sequence position p with
// length l <= ω is contained in windows j ∈ [p+l-ω, p] ∩ [0, numWin-1],
// never empty; per candidate, those ranges arrive with non-decreasing
// endpoints, so a covered-until cursor (stamped so that cursors left by
// earlier spans read as stale) unions them, each (candidate, window)
// pair is counted at most once, and the anomaly prefix sums convert
// each fresh range to class counts in O(1).
func (t *candidateTrie) countSpan(s span, dst []support, sign int32) {
	seq, anom := t.seq(s), t.anomBefore[s.lo:s.hi+1]
	numWin, stamp := int(s.hi-s.lo), t.stamp
	for p := range seq {
		node := int32(0)
		winHi := min(p, numWin-1)
		for k := p; k < len(seq); k++ {
			id := seq[k]
			if id < 0 {
				break
			}
			if node = t.child(node, id); node == 0 {
				break
			}
			winLo := max(k+1-t.omega, 0)
			c := &t.nodes[node]
			// Union with the windows already credited in this span.
			if seen := c.covered - stamp - 1; seen >= winLo {
				winLo = seen + 1
				if winLo > winHi {
					continue
				}
			}
			c.covered = stamp + 1 + winHi
			a := anom[winHi+1] - anom[winLo]
			d := &dst[node]
			d.anomaly += sign * a
			d.normal += sign * (int32(winHi-winLo+1) - a)
		}
	}
}

// split partitions spans, one tree node's windows, by whether candidate
// n matches them under Options.Match. It appends the matched windows'
// spans to in and the others' to out and returns both; each list is
// sorted, disjoint and maximal, because spans is. Contiguous matching
// scans each span's label sequence for n's ids once, as countSpan does;
// subsequence matching tests each window with MatchedBy.
func (t *candidateTrie) split(spans []span, n int32, in, out []span) ([]span, []span) {
	if t.opts.Match != MatchContiguous {
		comp := t.composition(n)
		for _, s := range spans {
			for lo := s.lo; lo < s.hi; {
				m := comp.MatchedBy(t.obs[lo].Labels, t.opts.Match)
				hi := lo + 1
				for hi < s.hi && comp.MatchedBy(t.obs[hi].Labels, t.opts.Match) == m {
					hi++
				}
				if m {
					in = append(in, span{lo, hi})
				} else {
					out = append(out, span{lo, hi})
				}
				lo = hi
			}
		}
		return in, out
	}
	// The occurrence n was found at holds n's ids.
	c := t.nodes[n]
	at := t.winAt[c.obs] + c.off
	pat := t.seqIDs[at : at+c.len]
	for _, s := range spans {
		in, out = t.splitSpan(s, pat, in, out)
	}
	return in, out
}

// splitSpan is split's contiguous scan of one span for the ids pat. An
// occurrence at sequence position p lies in windows [p+len(pat)-ω, p];
// those ranges arrive with non-decreasing endpoints, so one open
// in-span grows while they overlap or touch, and each gap between them
// is an out-span.
func (t *candidateTrie) splitSpan(s span, pat []int32, in, out []span) ([]span, []span) {
	seq := t.seq(s)
	numWin := int(s.hi - s.lo)
	open, next := -1, 0 // the open in-span is [open, next); windows >= next are unassigned
	for p := 0; p+len(pat) <= len(seq) && next < numWin; p++ {
		if seq[p] != pat[0] || !slices.Equal(seq[p+1:p+len(pat)], pat[1:]) {
			continue
		}
		winLo, winHi := max(p+len(pat)-t.omega, next), min(p, numWin-1)
		if winLo > winHi {
			continue
		}
		if winLo > next || open < 0 {
			if open >= 0 {
				in = append(in, span{s.lo + int32(open), s.lo + int32(next)})
			}
			if winLo > next {
				out = append(out, span{s.lo + int32(next), s.lo + int32(winLo)})
			}
			open = winLo
		}
		next = winHi + 1
	}
	if open >= 0 {
		in = append(in, span{s.lo + int32(open), s.lo + int32(next)})
	}
	if next < numWin {
		out = append(out, span{s.lo + int32(next), s.hi})
	}
	return in, out
}

// countSubsequence adds to dst, for every candidate of parent (every
// candidate when parent is nil), sign times the class counts of the
// windows of spans containing it under the gapped-subsequence ⊆o.
func (t *candidateTrie) countSubsequence(spans []span, parent *supports, dst []support, sign int32) {
	var ns []int32
	var comps []Composition
	for n := int32(1); int(n) < len(t.nodes); n++ {
		if parent == nil || parent.contig[n].anomaly > 0 {
			ns = append(ns, n)
			comps = append(comps, t.composition(n))
		}
	}
	for i, cc := range countSubsequenceSupports(t.obs, spans, comps, t.opts) {
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
