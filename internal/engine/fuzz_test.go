package engine_test

import (
	"slices"
	"testing"

	"cdt/internal/core"
	"cdt/internal/engine"
	"cdt/internal/pattern"
	"cdt/internal/rules"
)

// FuzzEngineMatch decodes a rule set, a window size, and a label series
// from raw bytes, then checks the compiled engine against per-window
// Composition.MatchedBy (via rules.Predicate.Matches) in the byte-selected
// match mode — the bit-identity contract, fuzzer-driven.
func FuzzEngineMatch(f *testing.F) {
	f.Add([]byte{3, 1, 2, 2, 0, 1, 4, 0, 1, 2, 3, 4, 0, 1, 2})
	f.Add([]byte{1, 0})
	f.Add([]byte{6, 2, 5, 3, 9, 8, 7, 1, 0, 0, 0, 2, 2, 2, 1, 3, 5, 7})
	f.Add([]byte{2, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	// Multi-word seeds: ω = 100 and 130 over 300 labels, so the fuzzer
	// starts where position shifts and window bitsets cross 64-bit
	// words. The first draws its labels from five; the second holds one
	// label 3 at position 280 among zeros under the rule "3 occurs", so
	// only windows in the last words fire, and only through a start in
	// the series' last word.
	for _, mode := range []byte{0, 1} {
		for _, omega := range []byte{99, 129} {
			mixed := []byte{mode, omega, 3, 2, 2, 1, 2, 0, 3, 0, 1, 4, 1, 1, 3, 2, 3, 1, 1}
			sparse := []byte{mode, omega, 0, 1, 1, 3, 0}
			for i := 0; i < 300; i++ {
				mixed = append(mixed, byte((i*7+i/3)%5))
				sparse = append(sparse, 0)
			}
			sparse[len(sparse)-20] = 3
			f.Add(mixed)
			f.Add(sparse)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		alphabet := cfg2.Alphabet()
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		label := func(b byte) pattern.Label { return alphabet[int(b)%len(alphabet)] }

		mode := core.MatchContiguous
		if next()&1 == 1 {
			mode = core.MatchSubsequence
		}
		omega := 1 + int(next())%130
		r := rules.Rule{Mode: mode}
		for np := int(next()) % 5; len(r.Predicates) <= np; {
			var pred rules.Predicate
			for nl := int(next()) % 4; len(pred.Literals) < nl; {
				comp := make([]pattern.Label, int(next())%5) // 0 => empty
				for j := range comp {
					comp[j] = label(next())
				}
				pred.Literals = append(pred.Literals, rules.Literal{
					Comp: core.Composition{Labels: comp},
					Neg:  next()&1 == 1,
				})
			}
			r.Predicates = append(r.Predicates, pred)
		}
		labels := make([]pattern.Label, len(data))
		for i := range labels {
			labels[i] = label(data[i])
		}

		e := engine.Compile(r, omega)

		// Batch view over one run, then over two runs cut where the
		// cursor below cuts.
		cut := 0
		if len(labels) > 0 {
			cut = int(labels[0].Var) % (len(labels) + 1)
		}
		for _, runs := range [][][]pattern.Label{{labels}, {labels[:cut], labels[cut:]}} {
			marks := e.Sweep(runs...)
			var got []int
			w := 0
			for ri, run := range runs {
				for s := 0; s+omega <= len(run); s, w = s+1, w+1 {
					want := oracleFired(r, run[s:s+omega])
					got = appendFired(got[:0], marks, len(r.Predicates), w)
					if !firedEqual(got, want) {
						t.Fatalf("sweep mode=%v omega=%d cut=%d run %d window %d: engine %v, oracle %v",
							mode, omega, cut, ri, s, got, want)
					}
				}
			}
			if marks.NumWindows() != w {
				t.Fatalf("sweep mode=%v omega=%d cut=%d: %d windows, want %d", mode, omega, cut, marks.NumWindows(), w)
			}
		}

		// Incremental view, with a run boundary mid-series.
		cur := e.NewCursor()
		for _, run := range [][]pattern.Label{labels[:cut], labels[cut:]} {
			cur.Reset()
			for i, l := range run {
				fired, complete := cur.Step(l)
				if !complete {
					continue
				}
				want := oracleFired(r, run[i+1-omega:i+1])
				if !firedEqual(fired, want) {
					t.Fatalf("cursor mode=%v omega=%d step %d: engine %v, oracle %v",
						mode, omega, i, fired, want)
				}
			}
		}
	})
}

func firedEqual(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b))
}
