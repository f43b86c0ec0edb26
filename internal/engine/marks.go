package engine

// Marks is the batch result of a sweep: per predicate, a window bitset
// with bit w set when the predicate fires on window w, plus the union of
// those bitsets. bits holds numPreds+1 rows of ⌈n/64⌉ words each:
// predicate p's row at [p·words, (p+1)·words), the union last. Fired
// reads one bit; First and AppendFired read one bit per predicate, in
// rule order, and only for windows the union marks. Immutable once
// returned.
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

func (m *Marks) has(p, w int) bool { return m.bits[p*m.words+w>>6]>>uint(w&63)&1 != 0 }

// NumWindows returns the number of windows swept.
func (m *Marks) NumWindows() int { return m.n }

// Fired reports whether any predicate fired on window w.
func (m *Marks) Fired(w int) bool { return m.has(m.preds, w) }

// First returns the 0-based index of the first predicate firing on
// window w, or -1 when the window is normal.
func (m *Marks) First(w int) int {
	if m.Fired(w) {
		for p := 0; p < m.preds; p++ {
			if m.has(p, w) {
				return p
			}
		}
	}
	return -1
}

// AppendFired appends the 0-based indices of the predicates fired on
// window w to dst, in rule order.
func (m *Marks) AppendFired(dst []int, w int) []int {
	if m.Fired(w) {
		for p := 0; p < m.preds; p++ {
			if m.has(p, w) {
				dst = append(dst, p)
			}
		}
	}
	return dst
}
