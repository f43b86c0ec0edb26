package engine

import (
	"math/bits"

	"cdt/internal/core"
	"cdt/internal/pattern"
)

// Batch views. A sweep answers "which predicates fire on window w" for
// every window of a run at once, 64 windows per machine word, in the
// bit-parallel style of Shift-And (Baeza-Yates & Gonnet, CACM 1992):
//
//  1. one window bitset per composition, bit w set iff the composition
//     occurs in window w. Contiguous mode ANDs per-label position
//     bitsets shifted by each label's offset in the composition, which
//     leaves the occurrence starts, and dilates the starts by ω−len, so
//     that every window holding a start is set. Subsequence mode steps
//     the latest-start NFA once per label and tests LatestStart ≥ ws
//     once per (composition, window).
//  2. per predicate, the AND of its positive compositions' sets with its
//     negated compositions' sets cleared, ORed into the Marks row of the
//     predicate and into the union row.
//
// A composition longer than the window gets an empty set, so a
// predicate with such a positive composition gets an empty row, as the
// cursor's compLen <= ω test has it. The working memory comes from
// a pool on the engine, so a sweep allocates its Marks and nothing per
// window.

// sweepScratch is one sweep's working memory, pooled on the engine.
type sweepScratch struct {
	occ    []uint64        // contiguous: per interned label, its position bitset
	starts []uint64        // contiguous: one composition's occurrence starts, dilated in place
	comp   []uint64        // per composition, its window bitset
	pred   []uint64        // one predicate's window bitset
	labels []pattern.Label // a run's labels when its windows do not share one array
	nfa    *core.SubseqNFA // subsequence mode
}

func (e *Engine) newSweepScratch() *sweepScratch {
	sc := &sweepScratch{}
	if e.mode == core.MatchSubsequence {
		sc.nfa = core.NewSubseqNFA(e.comps)
	}
	return sc
}

// Sweep evaluates every sliding ω-window of one labeled series,
// returning per-window marks. Window w covers labels[w : w+ω]; a series
// shorter than ω yields zero windows.
func (e *Engine) Sweep(labels []pattern.Label) *Marks {
	m := newMarks(e.numPreds, max(len(labels)-e.omega+1, 0))
	if m.n > 0 {
		sc := e.sweeps.Get().(*sweepScratch)
		e.sweepRun(sc, labels, e.omega, m, 0)
		e.sweeps.Put(sc)
	}
	return m
}

// SweepObservations evaluates a pooled observation set — the Corpus
// layout: maximal runs of consecutive sliding ω-windows with isolated
// windows in between — sweeping each run once. Marks index i
// corresponds to obs[i]. An observation whose length differs from ω
// (not produced by the pooling, but legal for direct callers) is a run
// of its own, evaluated with whole-window semantics.
func (e *Engine) SweepObservations(obs []core.Observation) *Marks {
	m := newMarks(e.numPreds, len(obs))
	if len(obs) == 0 {
		return m
	}
	sc := e.sweeps.Get().(*sweepScratch)
	for i := 0; i < len(obs); {
		win := len(obs[i].Labels)
		j := i + 1
		if win == e.omega {
			for j < len(obs) && slidOne(obs[j-1].Labels, obs[j].Labels) {
				j++
			}
		}
		e.sweepRun(sc, sc.runLabels(obs[i:j]), win, m, i)
		i = j
	}
	e.sweeps.Put(sc)
	return m
}

// slidOne reports whether b is window a slid one label right over the
// same array. Unlike core.SlidingAdjacent it also chains one-label
// windows, through a's spare capacity.
func slidOne(a, b []pattern.Label) bool {
	if len(a) == 1 && len(b) == 1 {
		return cap(a) > 1 && &a[:2][1] == &b[0]
	}
	return core.SlidingAdjacent(a, b)
}

// runLabels returns the labels under a run of sliding windows: the first
// window extended over its array to the run's end when its capacity
// allows, else a copy in scratch.
func (sc *sweepScratch) runLabels(run []core.Observation) []pattern.Label {
	first := run[0].Labels
	n := len(first) + len(run) - 1
	if cap(first) >= n {
		return first[:n]
	}
	sc.labels = append(sc.labels[:0], first...)
	for _, o := range run[1:] {
		sc.labels = append(sc.labels, o.Labels[len(o.Labels)-1])
	}
	return sc.labels
}

// sweepRun marks the win-windows of labels — window w covers
// labels[w : w+win] — into m as windows off, off+1, ….
func (e *Engine) sweepRun(sc *sweepScratch, labels []pattern.Label, win int, m *Marks, off int) {
	n := len(labels) - win + 1
	if n <= 0 {
		return
	}
	nw := (n + 63) / 64
	sc.comp = grow(sc.comp, len(e.comps)*nw)
	if e.mode == core.MatchContiguous {
		e.contiguousSets(sc, labels, win, n, nw)
	} else {
		e.subsequenceSets(sc, labels, win, nw)
	}
	sc.pred = grow(sc.pred, nw)
	pred, union := sc.pred, m.row(m.preds)
	for pi := 0; pi < e.numPreds; pi++ {
		if e.deadAll[pi] {
			continue
		}
		for i := range pred {
			pred[i] = ^uint64(0)
		}
		pred[nw-1] = tailMask(n)
		for w, mask := range e.pos[pi] {
			for ; mask != 0; mask &= mask - 1 {
				ci := w<<6 + bits.TrailingZeros64(mask)
				for i, s := range sc.comp[ci*nw : (ci+1)*nw] {
					pred[i] &= s
				}
			}
		}
		for w, mask := range e.neg[pi] {
			for ; mask != 0; mask &= mask - 1 {
				ci := w<<6 + bits.TrailingZeros64(mask)
				for i, s := range sc.comp[ci*nw : (ci+1)*nw] {
					pred[i] &^= s
				}
			}
		}
		orAt(m.row(pi), pred, off)
		orAt(union, pred, off)
	}
}

// contiguousSets fills sc.comp with each composition's window bitset
// over the n win-windows of labels.
func (e *Engine) contiguousSets(sc *sweepScratch, labels []pattern.Label, win, n, nw int) {
	if e.ac == nil {
		return // no compositions
	}
	in := e.ac.in
	lw := (len(labels) + 63) / 64
	sc.occ = grow(sc.occ, in.N()*lw)
	occ := sc.occ
	clear(occ)
	for p, l := range labels {
		if id := in.ID(l); id >= 0 {
			occ[int(id)*lw+p>>6] |= 1 << uint(p&63)
		}
	}
	sc.starts = grow(sc.starts, lw)
	starts := sc.starts
	for ci, c := range e.comps {
		set := sc.comp[ci*nw : (ci+1)*nw]
		if len(c) > win {
			clear(set)
			continue
		}
		id := int(in.ID(c[0]))
		copy(starts, occ[id*lw:(id+1)*lw])
		for j := 1; j < len(c); j++ {
			id := int(in.ID(c[j]))
			andShifted(starts, occ[id*lw:(id+1)*lw], j)
		}
		dilate(starts, win-len(c))
		copy(set, starts)
		set[nw-1] &= tailMask(n)
	}
}

// subsequenceSets fills sc.comp with each composition's window bitset
// over the win-windows of labels, stepping the pooled NFA. Its positions
// are global and never reset: a window starting at global position ws
// holds composition c iff LatestStart(c) >= ws, which no embedding from
// an earlier sweep can satisfy.
func (e *Engine) subsequenceSets(sc *sweepScratch, labels []pattern.Label, win, nw int) {
	comp := sc.comp
	clear(comp)
	base := sc.nfa.Pos() // global position of labels[0], the start of window 0
	for p, l := range labels {
		sc.nfa.Step(l)
		w := p - win + 1
		if w < 0 {
			continue
		}
		for ci := range e.comps {
			if sc.nfa.LatestStart(ci) >= base+w {
				comp[ci*nw+w>>6] |= 1 << uint(w&63)
			}
		}
	}
}

// andShifted clears bit i of dst unless bit i+s of src is set.
func andShifted(dst, src []uint64, s int) {
	q, r := s>>6, uint(s&63)
	for i := range dst {
		dst[i] &= shiftedWord(src, i, q, r)
	}
}

// dilate sets bit i of x wherever any of bits i..i+r was set, doubling
// the covered span each pass. Each pass reads only words at or above the
// one it writes, so it runs in place.
func dilate(x []uint64, r int) {
	for span := 1; span <= r; {
		s := min(span, r+1-span)
		q, b := s>>6, uint(s&63)
		for i := range x {
			x[i] |= shiftedWord(x, i, q, b)
		}
		span += s
	}
}

// shiftedWord returns word i of x shifted down by q words and r < 64
// bits, reading x as zero past its end. (A Go shift by 64 yields 0, so
// r = 0 needs no case of its own.)
func shiftedWord(x []uint64, i, q int, r uint) uint64 {
	j := i + q
	if j >= len(x) {
		return 0
	}
	w := x[j] >> r
	if j+1 < len(x) {
		w |= x[j+1] << (64 - r)
	}
	return w
}

// orAt ORs src into dst starting at bit off. src has no bits set past
// the windows it holds, so nothing spills past dst's end.
func orAt(dst, src []uint64, off int) {
	q, r := off>>6, uint(off&63)
	for i, w := range src {
		dst[q+i] |= w << r
		if hi := w >> (64 - r); hi != 0 {
			dst[q+i+1] |= hi
		}
	}
}

// tailMask selects the bits of the last word of an n-bit set.
func tailMask(n int) uint64 { return ^uint64(0) >> uint(63-(n-1)&63) }

func grow(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
