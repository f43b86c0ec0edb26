package pattern

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzParseLabel exercises the label parser with arbitrary strings: it
// must never panic, and anything it accepts must round-trip.
func FuzzParseLabel(f *testing.F) {
	cfg := NewConfig(3)
	for _, l := range cfg.Alphabet() {
		f.Add(cfg.LabelName(l))
	}
	f.Add("")
	f.Add("PP[")
	f.Add("PP[L,H]")
	f.Add("XX[P99,N1]")
	f.Add("PN[-H,-L]extra")
	f.Fuzz(func(t *testing.T, s string) {
		l, err := cfg.ParseLabel(s)
		if err != nil {
			return
		}
		// Accepted labels must render back to something parseable to the
		// same value.
		round, err := cfg.ParseLabel(cfg.LabelName(l))
		if err != nil {
			t.Fatalf("rendered label %q failed to parse: %v", cfg.LabelName(l), err)
		}
		if round != l {
			t.Fatalf("round trip changed %v to %v", l, round)
		}
	})
}

// FuzzClassify checks the interval classifier never panics and stays in
// range for arbitrary inputs.
func FuzzClassify(f *testing.F) {
	f.Add(0.0, uint8(2))
	f.Add(0.5, uint8(1))
	f.Add(-1.5, uint8(21))
	f.Fuzz(func(t *testing.T, diff float64, deltaRaw uint8) {
		delta := int(deltaRaw%21) + 1
		cfg := NewConfig(delta)
		iv := cfg.Classify(diff)
		if iv < Interval(-delta) || iv > Interval(delta) {
			t.Fatalf("Classify(%v) with delta %d = %d out of range", diff, delta, iv)
		}
	})
}

// FuzzLabelSeries feeds arbitrary finite series through the labeler: it
// must never panic, must produce exactly len(values)-2 labels on
// success, and every emitted label must be in the configured alphabet.
// Where every difference keeps |diff|·δ below 2⁶², each label must also
// match the per-point oracle, and so must LabelNormalizedInto's labels
// against the oracle over the min-max-normalized values.
func FuzzLabelSeries(f *testing.F) {
	f.Add(uint8(2), []byte{})
	f.Add(uint8(2), mustBytes(1, 2, 3))
	f.Add(uint8(5), mustBytes(0, 0, 0, 0))
	f.Add(uint8(1), mustBytes(-1.5, 3.25, -0.5, 7, 7))
	f.Fuzz(func(t *testing.T, deltaRaw uint8, raw []byte) {
		delta := int(deltaRaw%21) + 1
		cfg := NewConfig(delta)
		values := make([]float64, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i : i+8]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // contract covers finite inputs only
			}
			values = append(values, v)
		}
		labels, err := cfg.LabelSeries(values)
		if err != nil {
			if len(values) >= 3 {
				t.Fatalf("LabelSeries rejected a finite series of length %d: %v", len(values), err)
			}
			return
		}
		if len(labels) != len(values)-2 {
			t.Fatalf("LabelSeries returned %d labels for %d values, want %d", len(labels), len(values), len(values)-2)
		}
		for i, l := range labels {
			if !cfg.Valid(l) {
				t.Fatalf("label %d (%s) is outside the delta=%d alphabet", i, cfg.LabelName(l), delta)
			}
		}
		if refSafe(cfg, values) {
			checkAgainstReference(t, cfg, values)
		}
	})
}

// mustBytes encodes float64s in the little-endian layout FuzzLabelSeries
// decodes.
func mustBytes(vs ...float64) []byte {
	out := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}
