package engine

import (
	"math/bits"

	"cdt/internal/core"
	"cdt/internal/pattern"
)

// The batch view. A sweep answers "which predicates fire on window w"
// for every window of a run at once, 64 windows per machine word, in
// the bit-parallel style of Shift-And (Baeza-Yates & Gonnet, CACM 1992):
//
//  1. one window bitset per composition, bit w set iff the composition
//     occurs in window w. Contiguous mode ANDs per-label position
//     bitsets shifted by each label's offset in the composition, which
//     leaves the occurrence starts, and dilates the starts by ω−len, so
//     that every window holding a start is set. Subsequence mode steps
//     the latest-start NFA once per label and tests LatestStart ≥ ws
//     once per (composition, window).
//  2. per live predicate, the AND of its positive compositions' sets
//     with its negated compositions' sets cleared, ORed into the Marks
//     row of the predicate and into the union row.
//
// A composition longer than ω gets an empty set, and a predicate with
// such a positive composition is not live, so its row stays empty. The
// working memory comes from a pool on the engine, so a sweep allocates
// nothing per run or window: at most its Marks, and not even those when
// an earlier sweep's were released (Release).

// sweepScratch is one sweep's working memory, pooled on the engine.
type sweepScratch struct {
	occ    []uint64        // contiguous: per interned label, its position bitset
	starts []uint64        // contiguous: one composition's occurrence starts, dilated in place
	comp   []uint64        // per composition, its window bitset
	pred   []uint64        // one predicate's window bitset
	nfa    *core.SubseqNFA // subsequence mode
}

func (e *Engine) newSweepScratch() *sweepScratch {
	sc := &sweepScratch{}
	if e.mode == core.MatchSubsequence {
		sc.nfa = core.NewSubseqNFA(e.comps)
	}
	return sc
}

// Sweep evaluates every ω-window of each label run and returns their
// marks in run order: first the windows of runs[0], window w covering
// runs[0][w : w+ω], then those of runs[1], and so on. No window spans
// two runs, and a run shorter than ω adds none.
func (e *Engine) Sweep(runs ...[]pattern.Label) *Marks {
	n := 0
	for _, labels := range runs {
		n += max(len(labels)-e.omega+1, 0)
	}
	m := e.newMarks(n)
	if n == 0 {
		return m
	}
	sc := e.sweeps.Get().(*sweepScratch)
	off := 0
	for _, labels := range runs {
		if len(labels) >= e.omega {
			e.sweepRun(sc, labels, m, off)
			off += len(labels) - e.omega + 1
		}
	}
	e.sweeps.Put(sc)
	return m
}

// sweepRun marks the ω-windows of labels (len(labels) >= ω) into m as
// windows off, off+1, ….
func (e *Engine) sweepRun(sc *sweepScratch, labels []pattern.Label, m *Marks, off int) {
	n := len(labels) - e.omega + 1
	nw := (n + 63) / 64
	sc.comp = grow(sc.comp, len(e.comps)*nw)
	if e.mode == core.MatchContiguous {
		e.contiguousSets(sc, labels, n, nw)
	} else {
		e.subsequenceSets(sc, labels, nw)
	}
	sc.pred = grow(sc.pred, nw)
	pred, union := sc.pred, m.row(m.preds)
	for _, pi := range e.live {
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
		orAt(m.row(int(pi)), pred, off)
		orAt(union, pred, off)
	}
}

// contiguousSets fills sc.comp with each composition's window bitset
// over the n ω-windows of labels.
func (e *Engine) contiguousSets(sc *sweepScratch, labels []pattern.Label, n, nw int) {
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
		if len(c) > e.omega {
			clear(set)
			continue
		}
		id := int(in.ID(c[0]))
		copy(starts, occ[id*lw:(id+1)*lw])
		for j := 1; j < len(c); j++ {
			id := int(in.ID(c[j]))
			andShifted(starts, occ[id*lw:(id+1)*lw], j)
		}
		dilate(starts, e.omega-len(c))
		copy(set, starts)
		set[nw-1] &= tailMask(n)
	}
}

// subsequenceSets fills sc.comp with each composition's window bitset
// over the ω-windows of labels, stepping the pooled NFA. Its positions
// are global and never reset: a window starting at global position ws
// holds composition c iff LatestStart(c) >= ws, which no embedding from
// an earlier sweep can satisfy.
func (e *Engine) subsequenceSets(sc *sweepScratch, labels []pattern.Label, nw int) {
	comp := sc.comp
	clear(comp)
	base := sc.nfa.Pos() // global position of labels[0], the start of window 0
	for p, l := range labels {
		sc.nfa.Step(l)
		w := p - e.omega + 1
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
