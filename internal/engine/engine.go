// Package engine compiles a trained rule set into one immutable matcher
// shared by every detection surface: batch detection
// (Model.DetectWindows, DetectExplained, EvaluateCorpus), streaming
// (Stream), and serving (internal/server). A Model compiles its engine
// once at Fit/Load time; afterwards the engine is read-only and safe for
// any number of concurrent cursors and sweeps.
//
// Compile deduplicates the rule's compositions and masks, per
// predicate, its positive and negated ones over them. It serves three
// views:
//
//   - Batch (Sweep, SweepObservations; sweep.go): every window of a run
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
//   - Single window (EvalWindow): one window of any length, through the
//     cursor's automata.
//
// Both automata work in global positions and never reset between
// windows, runs, or streams (stale state always fails the >= ws test),
// which is what makes the incremental view O(1) amortized per label.
//
// Bit-identity contract: for every window, in both match modes, the
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
// in Cursors and in a pooled scratch for EvalWindow.
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
	// deadAll marks predicates containing a negated empty composition:
	// an empty composition matches every window, so they never fire.
	deadAll []bool
	// live lists the predicates that can fire on an ω-window: not
	// deadAll and no positive composition longer than ω. The cursor path
	// walks only these.
	live []int32

	ac *acAutomaton // contiguous mode; nil when comps is empty

	scratch sync.Pool // *matchState, for EvalWindow
	sweeps  sync.Pool // *sweepScratch, for the batch views
}

// Compile builds the engine for a rule set at window size omega
// (omega >= 1). The rule's composition label slices are retained as
// read-only views.
func Compile(r rules.Rule, omega int) *Engine {
	e := &Engine{mode: r.Mode, omega: omega, numPreds: len(r.Predicates)}
	index := make(map[string]int32)
	posList := make([][]int32, e.numPreds)
	negList := make([][]int32, e.numPreds)
	e.deadAll = make([]bool, e.numPreds)
	for pi, p := range r.Predicates {
		for _, lit := range p.Literals {
			if len(lit.Comp.Labels) == 0 {
				if lit.Neg {
					e.deadAll[pi] = true
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
		if e.deadAll[pi] {
			continue
		}
		alive := true
		for _, ci := range posList[pi] {
			if e.compLen[ci] > omega {
				alive = false
				break
			}
		}
		if alive {
			e.live = append(e.live, int32(pi))
		}
	}
	if e.mode == core.MatchContiguous && len(e.comps) > 0 {
		e.ac = newAC(e.comps)
	}
	e.scratch.New = func() any { return e.newMatchState() }
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

// matchState is the per-consumer mutable automaton state: one per
// Cursor, pooled for EvalWindow. Positions are global (labels consumed
// since creation); neither automaton re-initializes between windows.
type matchState struct {
	pos   int
	state int32 // AC state (contiguous mode)
	// until holds, per comp, the last window start its latest occurrence
	// still covers: lastEnd − len + 1, in global positions (contiguous).
	until   []int
	nfa     *core.SubseqNFA // subsequence mode
	matched []uint64
	// active lists the compositions whose bit is currently set in matched
	// (contiguous cursor path only, where matched is maintained by events:
	// an automaton hit sets a bit, and the per-window expiry scan walks
	// just this list instead of every composition).
	active []int32
	// prev/fired cache the last evaluated window: when the matched
	// bitset is unchanged — the overwhelmingly common case on normal
	// stretches, where it stays empty — the fired set is reused without
	// re-testing any predicate mask.
	prev       []uint64
	fired      []int
	firedValid bool
}

func (e *Engine) newMatchState() *matchState {
	s := &matchState{
		matched: make([]uint64, e.words),
		prev:    make([]uint64, e.words),
	}
	if e.mode == core.MatchContiguous {
		s.until = make([]int, len(e.comps))
		for i := range s.until {
			s.until[i] = -1
		}
	} else {
		s.nfa = core.NewSubseqNFA(e.comps)
	}
	return s
}

// step consumes one label, updating per-composition occurrence state.
func (s *matchState) step(e *Engine, l pattern.Label) {
	if e.mode == core.MatchContiguous {
		if e.ac != nil {
			s.state = e.ac.step(s.state, l)
			for _, ci := range e.ac.out[s.state] {
				s.until[ci] = s.pos - e.compLen[ci] + 1
			}
		}
	} else {
		s.nfa.Step(l)
	}
	s.pos++
}

// setMatched rebuilds the composition-match bitset for the window of
// global positions [ws, s.pos-1].
func (s *matchState) setMatched(e *Engine, ws int) {
	clear(s.matched)
	if e.mode == core.MatchContiguous {
		for ci := range e.compLen {
			if s.until[ci] >= ws {
				s.matched[ci>>6] |= 1 << uint(ci&63)
			}
		}
		return
	}
	for ci := range e.comps {
		if s.nfa.LatestStart(ci) >= ws {
			s.matched[ci>>6] |= 1 << uint(ci&63)
		}
	}
}

// evalCached returns the fired set for the current matched bitset,
// reusing the previous window's result when the bitset is unchanged.
func (s *matchState) evalCached(e *Engine) []int {
	same := s.firedValid
	if same {
		for w, m := range s.matched {
			if s.prev[w] != m {
				same = false
				break
			}
		}
	}
	if !same {
		s.fired = e.appendFired(s.matched, true, s.fired[:0])
		copy(s.prev, s.matched)
		s.firedValid = true
	}
	return s.fired
}

// appendFired appends the 0-based indices of predicates firing on the
// matched bitset. omegaOnly restricts the scan to predicates alive at
// ω-windows (the cursor path); EvalWindow passes false because a
// longer window can satisfy compositions longer than ω.
func (e *Engine) appendFired(matched []uint64, omegaOnly bool, dst []int) []int {
	if omegaOnly {
		for _, pi := range e.live {
			if e.fires(matched, int(pi)) {
				dst = append(dst, int(pi))
			}
		}
		return dst
	}
	for pi := 0; pi < e.numPreds; pi++ {
		if e.deadAll[pi] {
			continue
		}
		if e.fires(matched, pi) {
			dst = append(dst, pi)
		}
	}
	return dst
}

func (e *Engine) fires(matched []uint64, pi int) bool {
	for w, m := range e.pos[pi] {
		if matched[w]&m != m {
			return false
		}
	}
	for w, m := range e.neg[pi] {
		if matched[w]&m != 0 {
			return false
		}
	}
	return true
}

// Cursor is the incremental view: one label in, O(1) amortized state
// work, and for each label completing an ω-window the fired-predicate
// set of that window. Not safe for concurrent use; create one per
// consumer (the Engine itself stays shared).
type Cursor struct {
	e      *Engine
	s      *matchState
	runLen int
}

// NewCursor starts an incremental matcher against the shared engine.
func (e *Engine) NewCursor() *Cursor {
	return &Cursor{e: e, s: e.newMatchState()}
}

// Step consumes the next label. complete reports whether a full
// ω-window of the current run ended at this label; fired then lists the
// 0-based indices of the rule predicates matching that window, in rule
// order (empty when the window is normal, valid only until the next
// Step).
func (c *Cursor) Step(l pattern.Label) (fired []int, complete bool) {
	e := c.e
	if e.mode == core.MatchContiguous {
		return c.stepContiguous(l)
	}
	c.s.step(e, l)
	c.runLen++
	if c.runLen < e.omega {
		return nil, false
	}
	c.s.setMatched(e, c.s.pos-e.omega)
	return c.s.evalCached(e), true
}

// stepContiguous is the contiguous-mode cursor step. Instead of
// rebuilding the matched bitset every window it maintains it by events:
// an automaton hit sets the composition's bit (for compositions that fit
// in ω — longer ones can never match an ω-window), and the expiry scan
// over the short active list clears bits whose latest occurrence the
// advancing window start has left behind. On normal stretches both are
// no-ops, the cached fired set is returned untouched, and the per-label
// cost collapses to one automaton transition.
func (c *Cursor) stepContiguous(l pattern.Label) ([]int, bool) {
	e, s := c.e, c.s
	if e.ac != nil {
		s.state = e.ac.step(s.state, l)
		for _, ci := range e.ac.out[s.state] {
			s.until[ci] = s.pos - e.compLen[ci] + 1
			w, b := ci>>6, uint64(1)<<uint(ci&63)
			if s.matched[w]&b == 0 && e.compLen[ci] <= e.omega {
				s.matched[w] |= b
				s.active = append(s.active, ci)
				s.firedValid = false
			}
		}
	}
	s.pos++
	c.runLen++
	if c.runLen < e.omega {
		return nil, false
	}
	if len(s.active) > 0 {
		ws := s.pos - e.omega
		for i := 0; i < len(s.active); {
			ci := s.active[i]
			if s.until[ci] < ws {
				s.matched[ci>>6] &^= 1 << uint(ci&63)
				s.active[i] = s.active[len(s.active)-1]
				s.active = s.active[:len(s.active)-1]
				s.firedValid = false
			} else {
				i++
			}
		}
	}
	if !s.firedValid {
		s.fired = e.appendFired(s.matched, true, s.fired[:0])
		s.firedValid = true
	}
	return s.fired, true
}

// RunLen returns the number of labels consumed since the last Reset (or
// creation).
func (c *Cursor) RunLen() int { return c.runLen }

// Reset starts a new run: subsequent windows never span the boundary.
// Automaton state carries over unreset — global positions guarantee
// stale occurrences cannot fire post-Reset windows — so Reset is O(1).
func (c *Cursor) Reset() {
	c.runLen = 0
	c.s.state = 0
}

// EvalWindow evaluates one window of labels in isolation — whole-slice
// ⊆o semantics, exactly rules.Predicate.Matches per predicate —
// appending the 0-based indices of fired predicates to dst. Unlike the
// cursor path it makes no assumption that len(labels) == ω: public
// callers (Model.FiredPredicates) accept windows of any length, where
// compositions longer than ω may still match. Safe for concurrent use.
func (e *Engine) EvalWindow(labels []pattern.Label, dst []int) []int {
	s := e.scratch.Get().(*matchState)
	base := s.pos
	s.state = 0
	for _, l := range labels {
		s.step(e, l)
	}
	s.setMatched(e, base)
	dst = e.appendFired(s.matched, false, dst)
	e.scratch.Put(s)
	return dst
}
