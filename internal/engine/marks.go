package engine

import "math/bits"

// Marks is the batch result of a sweep: per predicate, a window bitset
// with bit w set when the predicate fires on window w, plus the union of
// those bitsets. bits holds numPreds+1 rows of ⌈n/64⌉ words each:
// predicate p's row at [p·words, (p+1)·words), the union last. Fired
// and Has read one bit; First reads one bit per predicate, in rule
// order, and only for windows the union marks; NumFired, NumHits and
// NextFired read whole words. Immutable once returned.
type Marks struct {
	n, words, preds int
	bits            []uint64
}

func newMarks(numPreds, n int) *Marks {
	words := (n + 63) / 64
	return &Marks{n: n, words: words, preds: numPreds, bits: make([]uint64, (numPreds+1)*words)}
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
