package engine

import "math/bits"

// Marks is the batch result of a sweep: per predicate, a window bitset
// with bit w set when the predicate fires on window w, plus the union of
// those bitsets. bits holds numPreds+1 rows of ⌈n/64⌉ words each:
// predicate p's row at [p·words, (p+1)·words), the union last. Fired
// and Has read one bit; First reads one bit per predicate, in rule
// order, and only for windows the union marks; NumFired, NumHits and
// NextFired read whole words. Immutable once returned, until the caller
// hands it back with Engine.Release.
type Marks struct {
	n, words, preds int
	bits            []uint64
}

// maxPooledMarkWords bounds the bitsets Release keeps, so one huge
// series does not pin its marks for good.
const maxPooledMarkWords = 1 << 17

// newMarks returns cleared marks for n windows, reusing released marks
// from the engine's pool when there are any.
func (e *Engine) newMarks(n int) *Marks {
	words := (n + 63) / 64
	size := (e.numPreds + 1) * words
	m, _ := e.marks.Get().(*Marks)
	if m == nil {
		m = new(Marks)
	}
	if cap(m.bits) < size {
		m.bits = make([]uint64, size)
	} else {
		m.bits = m.bits[:size]
		clear(m.bits)
	}
	m.n, m.words, m.preds = n, words, e.numPreds
	return m
}

// Release hands m, marks a sweep of e returned, back to e for a later
// sweep to clear and reuse. The caller must not read m afterwards.
// Releasing is optional: marks that are kept are never reused.
func (e *Engine) Release(m *Marks) {
	if m != nil && cap(m.bits) <= maxPooledMarkWords {
		e.marks.Put(m)
	}
}

// row returns predicate p's window bitset; row(m.preds) is the union.
func (m *Marks) row(p int) []uint64 { return m.bits[p*m.words : (p+1)*m.words] }

// Has reports whether predicate p (0-based, rule order) fired on
// window w.
func (m *Marks) Has(p, w int) bool { return m.bits[p*m.words+w>>6]>>uint(w&63)&1 != 0 }

// NumWindows returns the number of windows swept.
func (m *Marks) NumWindows() int { return m.n }

// Fired reports whether any predicate fired on window w.
func (m *Marks) Fired(w int) bool { return m.Has(m.preds, w) }

// NumFired returns the number of windows on which some predicate fired.
func (m *Marks) NumFired() int { return popcount(m.row(m.preds)) }

// NumHits returns the number of (window, predicate) pairs for which
// Has is true.
func (m *Marks) NumHits() int { return popcount(m.bits[:m.preds*m.words]) }

// NextFired returns the first fired window at or after w, or -1 when
// none is left.
func (m *Marks) NextFired(w int) int {
	union := m.row(m.preds)
	if w >= m.n {
		return -1
	}
	i := w >> 6
	word := union[i] &^ (1<<uint(w&63) - 1)
	for word == 0 {
		if i++; i == len(union) {
			return -1
		}
		word = union[i]
	}
	return i<<6 + bits.TrailingZeros64(word)
}

// First returns the 0-based index of the first predicate firing on
// window w, or -1 when the window is normal.
func (m *Marks) First(w int) int {
	if m.Fired(w) {
		for p := 0; p < m.preds; p++ {
			if m.Has(p, w) {
				return p
			}
		}
	}
	return -1
}

func popcount(words []uint64) int {
	n := 0
	for _, x := range words {
		n += bits.OnesCount64(x)
	}
	return n
}
