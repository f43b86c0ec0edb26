// Package engine compiles a trained rule set into one immutable matcher
// shared by every detection surface: batch detection
// (Model.DetectWindows, DetectExplained, EvaluateCorpus, Audit),
// streaming (Stream), and serving (internal/server). A Model compiles
// its engine once at Fit/Load time; afterwards the engine is read-only
// and safe for any number of concurrent cursors and sweeps.
//
// Compile deduplicates the rule's compositions and masks, per
// predicate, its positive and negated ones over them. It answers one
// question, which predicates fire on an ω-window, through two views:
//
//   - Batch (Sweep; sweep.go): every ω-window of one or more label runs
//     at once, 64 windows per machine word. One window bitset per
//     composition — contiguous mode from shifted ANDs of per-label
//     position bitsets, subsequence mode from the latest-start NFA —
//     then per predicate the AND of its positive compositions' sets
//     with its negated compositions' sets cleared. The result, Marks,
//     is one window bitset per predicate plus their union.
//   - Incremental (Cursor): one label in, the fired set of the window it
//     completes out, for streams. Contiguous mode steps a dense-table
//     Aho–Corasick automaton, which reports the compositions whose
//     occurrence ends at each label; per composition the cursor keeps
//     the last window start its most recent occurrence still covers
//     (global end − len + 1), so "composition ⊆o window" collapses to
//     until[c] >= ws for a window starting at global position ws.
//     Subsequence mode steps the bitmask latest-start NFA of
//     core.SubseqNFA, where the test is LatestStart(c) >= ws. Fired
//     predicates come from the masks over the composition-match
//     bitset: predicate p fires iff matched ⊇ pos[p] and
//     matched ∩ neg[p] = ∅.
//
// Both automata work in global positions and never reset between
// windows, runs, or streams (stale state always fails the >= ws test),
// which is what makes the incremental view O(1) amortized per label.
//
// Bit-identity contract: for every ω-window, in both match modes, the
// fired-predicate set equals evaluating rules.Predicate.Matches — i.e.
// per-window Composition.MatchedBy — on that window. The differential
// and fuzz tests in this package hold the engine to that contract;
// rules.Rule.Detect stays in the tree as the executable reference
// semantics.
package engine

import (
	"sync"

	"cdt/internal/core"
	"cdt/internal/pattern"
	"cdt/internal/rules"
)

// Engine is the compiled, immutable matcher for one rule set at one
// window size. Safe for concurrent use; per-consumer mutable state lives
// in Cursors, in the pooled sweep scratch and in released Marks.
type Engine struct {
	mode  core.MatchMode
	omega int

	numPreds int
	// comps are the deduplicated non-empty compositions referenced by
	// any literal (retained read-only views of the rule's label slices);
	// compLen caches their lengths, words the bitset width over them.
	comps   [][]pattern.Label
	compLen []int
	words   int

	// pos and neg are the per-predicate literal masks over the
	// composition bitset. A predicate with empty masks fires on every
	// window (an empty conjunction is TRUE, and positive empty
	// compositions impose no constraint).
	pos, neg [][]uint64
	// live lists the predicates that can fire on an ω-window: none of
	// their literals negates an empty composition (which matches every
	// window) and none of their positive compositions is longer than ω.
	// Both views walk only these.
	live []int32

	ac *acAutomaton // contiguous mode; nil when comps is empty

	sweeps sync.Pool // *sweepScratch
	marks  sync.Pool // *Marks handed back by Release
}

// Compile builds the engine for a rule set at window size omega
// (omega >= 1). The rule's composition label slices are retained as
// read-only views.
func Compile(r rules.Rule, omega int) *Engine {
	e := &Engine{mode: r.Mode, omega: omega, numPreds: len(r.Predicates)}
	index := make(map[string]int32)
	posList := make([][]int32, e.numPreds)
	negList := make([][]int32, e.numPreds)
	deadAll := make([]bool, e.numPreds)
	for pi, p := range r.Predicates {
		for _, lit := range p.Literals {
			if len(lit.Comp.Labels) == 0 {
				if lit.Neg {
					deadAll[pi] = true
				}
				continue
			}
			k := lit.Comp.Key()
			ci, ok := index[k]
			if !ok {
				ci = int32(len(e.comps))
				index[k] = ci
				e.comps = append(e.comps, lit.Comp.Labels)
			}
			if lit.Neg {
				negList[pi] = append(negList[pi], ci)
			} else {
				posList[pi] = append(posList[pi], ci)
			}
		}
	}
	e.compLen = make([]int, len(e.comps))
	for ci, c := range e.comps {
		e.compLen[ci] = len(c)
	}
	e.words = (len(e.comps) + 63) / 64
	e.pos = make([][]uint64, e.numPreds)
	e.neg = make([][]uint64, e.numPreds)
	for pi := 0; pi < e.numPreds; pi++ {
		e.pos[pi] = maskOf(posList[pi], e.words)
		e.neg[pi] = maskOf(negList[pi], e.words)
		alive := !deadAll[pi]
		for _, ci := range posList[pi] {
			alive = alive && e.compLen[ci] <= omega
		}
		if alive {
			e.live = append(e.live, int32(pi))
		}
	}
	if e.mode == core.MatchContiguous && len(e.comps) > 0 {
		e.ac = newAC(e.comps)
	}
	e.sweeps.New = func() any { return e.newSweepScratch() }
	return e
}

func maskOf(cis []int32, words int) []uint64 {
	if len(cis) == 0 {
		return nil
	}
	m := make([]uint64, words)
	for _, ci := range cis {
		m[ci>>6] |= 1 << uint(ci&63)
	}
	return m
}

// Mode returns the ⊆o semantics the engine was compiled for.
func (e *Engine) Mode() core.MatchMode { return e.mode }

// Omega returns the window size the engine was compiled for.
func (e *Engine) Omega() int { return e.omega }

// NumPredicates returns the number of rule predicates.
func (e *Engine) NumPredicates() int { return e.numPreds }

// appendFired appends the 0-based indices of the live predicates firing
// on the composition-match bitset matched, in rule order.
func (e *Engine) appendFired(matched []uint64, dst []int) []int {
next:
	for _, pi := range e.live {
		for w, m := range e.pos[pi] {
			if matched[w]&m != m {
				continue next
			}
		}
		for w, m := range e.neg[pi] {
			if matched[w]&m != 0 {
				continue next
			}
		}
		dst = append(dst, int(pi))
	}
	return dst
}

// Cursor is the incremental view: one label in, O(1) amortized state
// work, and for each label completing an ω-window the fired-predicate
// set of that window. Positions are global (labels consumed since
// creation); neither automaton re-initializes between windows or runs.
// Not safe for concurrent use; create one per consumer (the Engine
// itself stays shared).
type Cursor struct {
	e      *Engine
	pos    int // labels consumed since creation
	runLen int // labels consumed since the last Reset

	state int32 // AC state (contiguous mode)
	// until holds, per composition, the last window start its latest
	// occurrence still covers: lastEnd − len + 1 (contiguous mode).
	until []int
	nfa   *core.SubseqNFA // subsequence mode

	// matched is the composition-match bitset of the current window. In
	// contiguous mode it is kept by events — an automaton hit sets a bit,
	// the expiry scan clears it — and active lists its set bits, so the
	// scan walks just those.
	matched []uint64
	active  []int32
	// fired is the fired set of matched, recomputed only after a matched
	// bit flips (stale). On normal stretches none does, so the set is
	// returned without re-testing any predicate mask.
	fired []int
	stale bool
}

// NewCursor starts an incremental matcher against the shared engine.
func (e *Engine) NewCursor() *Cursor {
	c := &Cursor{e: e, matched: make([]uint64, e.words), stale: true}
	if e.mode == core.MatchContiguous {
		c.until = make([]int, len(e.comps))
	} else {
		c.nfa = core.NewSubseqNFA(e.comps)
	}
	return c
}

// Step consumes the next label. complete reports whether a full
// ω-window of the current run ended at this label; fired then lists the
// 0-based indices of the rule predicates matching that window, in rule
// order (empty when the window is normal, valid only until the next
// Step).
func (c *Cursor) Step(l pattern.Label) (fired []int, complete bool) {
	e := c.e
	if e.mode == core.MatchContiguous {
		if e.ac != nil {
			c.state = e.ac.step(c.state, l)
			for _, ci := range e.ac.out[c.state] {
				c.until[ci] = c.pos - e.compLen[ci] + 1
				// A composition longer than ω never matches an ω-window.
				if e.compLen[ci] <= e.omega && c.flip(ci, true) {
					c.active = append(c.active, ci)
				}
			}
		}
	} else {
		c.nfa.Step(l)
	}
	c.pos++
	c.runLen++
	if c.runLen < e.omega {
		return nil, false
	}
	ws := c.pos - e.omega
	if e.mode == core.MatchSubsequence {
		for ci := range e.comps {
			c.flip(int32(ci), c.nfa.LatestStart(ci) >= ws)
		}
	} else if len(c.active) > 0 {
		for i := 0; i < len(c.active); {
			if ci := c.active[i]; c.until[ci] < ws {
				c.flip(ci, false)
				c.active[i] = c.active[len(c.active)-1]
				c.active = c.active[:len(c.active)-1]
			} else {
				i++
			}
		}
	}
	if c.stale {
		c.fired = e.appendFired(c.matched, c.fired[:0])
		c.stale = false
	}
	return c.fired, true
}

// flip sets composition ci's matched bit to on, marking the fired set
// stale, and reports whether the bit changed.
func (c *Cursor) flip(ci int32, on bool) bool {
	w, b := ci>>6, uint64(1)<<uint(ci&63)
	if (c.matched[w]&b != 0) == on {
		return false
	}
	c.matched[w] ^= b
	c.stale = true
	return true
}

// RunLen returns the number of labels consumed since the last Reset (or
// creation).
func (c *Cursor) RunLen() int { return c.runLen }

// Reset starts a new run: subsequent windows never span the boundary.
// Automaton state carries over unreset — global positions guarantee
// stale occurrences cannot fire post-Reset windows — so Reset is O(1).
func (c *Cursor) Reset() {
	c.runLen = 0
	c.state = 0
}
