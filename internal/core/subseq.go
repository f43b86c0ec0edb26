package core

import (
	"math/bits"
	"slices"
	"sync"

	"cdt/internal/pattern"
)

// SubseqNFA is the incremental matcher for the gapped-subsequence ⊆o
// mode (MatchSubsequence). It consumes one label at a time and
// maintains, per tracked pattern and prefix length, the *latest start*:
// the greatest position s such that pattern[:j+1] embeds in order into
// the labels consumed from position s onward. Stepping a label advances,
// via a per-label-id bitmask, exactly the prefix slots that label can
// extend, so a step costs O(set bits) instead of O(total pattern
// length).
//
// Positions are global — the count of labels consumed since the NFA was
// created — and the NFA is never reset. A window covering global
// positions [ws, ws+n-1] contains pattern p iff, after stepping the
// window's last label, LatestStart(p) >= ws: an embedding that recent
// ends at or before the current position and so lies entirely inside
// the window, while embeddings begun before the window (including in a
// previous, unrelated run of labels) fail the >= ws test. That one
// comparison replaces a per-window rescan and is what makes both the
// incremental rule engine (internal/engine) and subsequence support
// counting O(1) amortized per label per pattern.
//
// The latest-start recurrence on reading label x at position i is, for
// every j with pattern[j] == x taken in descending j order:
//
//	latest[j] = i            if j == 0
//	latest[j] = latest[j-1]  otherwise
//
// The unconditional overwrite is sound because latest is monotone in j
// (an embedding of a longer prefix contains one of the shorter prefix
// with the same start, so latest[j-1] >= latest[j]), and descending
// order reads latest[j-1] before this step updates it.
type SubseqNFA struct {
	in  *Interner
	adv [][]subseqAdvance
	// off[p] is the offset of pattern p's prefix slots in latest; lenp[p]
	// its length.
	off    []int32
	lenp   []int32
	latest []int
	pos    int
}

// subseqAdvance says a label advances pattern pat at the prefix indices
// set in mask.
type subseqAdvance struct {
	pat  int32
	mask []uint64
}

// NewSubseqNFA builds the matcher for a fixed pattern set. Empty
// patterns are legal and match every window (mirroring
// Composition.MatchedBy on an empty composition).
func NewSubseqNFA(patterns [][]pattern.Label) *SubseqNFA {
	n := &SubseqNFA{in: NewInterner(slices.Values(patterns))}
	n.off = make([]int32, len(patterns))
	n.lenp = make([]int32, len(patterns))
	total := 0
	for p, pat := range patterns {
		n.off[p] = int32(total)
		n.lenp[p] = int32(len(pat))
		total += len(pat)
	}
	n.latest = make([]int, total)
	for i := range n.latest {
		n.latest[i] = -1
	}
	n.adv = make([][]subseqAdvance, n.in.N())
	for p, pat := range patterns {
		words := (len(pat) + 63) / 64
		masks := make(map[int32][]uint64)
		var order []int32 // first-occurrence order keeps adv deterministic
		for j, l := range pat {
			id := n.in.ID(l)
			m := masks[id]
			if m == nil {
				m = make([]uint64, words)
				masks[id] = m
				order = append(order, id)
			}
			m[j>>6] |= 1 << uint(j&63)
		}
		for _, id := range order {
			n.adv[id] = append(n.adv[id], subseqAdvance{pat: int32(p), mask: masks[id]})
		}
	}
	return n
}

// Step consumes the next label.
func (n *SubseqNFA) Step(l pattern.Label) {
	if id := n.in.ID(l); id >= 0 {
		for _, ad := range n.adv[id] {
			base := int(n.off[ad.pat])
			for b := len(ad.mask) - 1; b >= 0; b-- {
				w := ad.mask[b]
				for w != 0 {
					hi := 63 - bits.LeadingZeros64(w)
					w &^= 1 << uint(hi)
					j := b<<6 + hi
					if j == 0 {
						n.latest[base] = n.pos
					} else {
						n.latest[base+j] = n.latest[base+j-1]
					}
				}
			}
		}
	}
	n.pos++
}

// Pos returns the number of labels consumed (the next global position).
func (n *SubseqNFA) Pos() int { return n.pos }

// LatestStart returns the greatest global start position of an in-order
// embedding of pattern p in the labels consumed so far, or -1 when none
// exists. An empty pattern embeds at the current position.
func (n *SubseqNFA) LatestStart(p int) int {
	if n.lenp[p] == 0 {
		return n.pos
	}
	return n.latest[int(n.off[p])+int(n.lenp[p])-1]
}

// countSubsequenceSupports returns, per candidate, the class counts of
// the windows of spans (over obs) containing it as a gapped subsequence
// — the MatchSubsequence analogue of candidateTrie.countSpan.
// Candidates are chunked across workers; each worker makes one pass over
// the spans with its own SubseqNFA, feeding each span's windows one
// label at a time, so the pass costs O(windows·chunk + labels·advances)
// instead of a per-candidate rescan's O(windows·ω·chunk).
func countSubsequenceSupports(obs []Observation, spans []span, candidates []Composition, opts Options) []ClassCounts {
	counts := make([]ClassCounts, len(candidates))
	if len(candidates) == 0 || len(spans) == 0 {
		return counts
	}
	workers := opts.parallelism()
	if workers > len(candidates) {
		workers = len(candidates)
	}
	chunk := (len(candidates) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(candidates))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			pats := make([][]pattern.Label, hi-lo)
			for i := range pats {
				pats[i] = candidates[lo+i].Labels
			}
			nfa := NewSubseqNFA(pats)
			for _, s := range spans {
				for i := s.lo; i < s.hi; i++ {
					ls := obs[i].Labels
					if i > s.lo {
						// Next window of the span: only its last label is new.
						nfa.Step(ls[len(ls)-1])
					} else {
						for _, l := range ls {
							nfa.Step(l)
						}
					}
					ws := nfa.Pos() - len(ls)
					anom := obs[i].Class == Anomaly
					for ci := range pats {
						if nfa.LatestStart(ci) >= ws {
							if anom {
								counts[lo+ci].Anomaly++
							} else {
								counts[lo+ci].Normal++
							}
						}
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return counts
}
