package timeseries

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestNormalizeRange(t *testing.T) {
	s := New("s", []float64{10, 20, 15, 30, 10})
	sc, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Min != 10 || sc.Max != 30 {
		t.Fatalf("scale = %+v, want {10 30}", sc)
	}
	want := []float64{0, 0.5, 0.25, 1, 0}
	for i, v := range s.Values {
		if !almostEqual(v, want[i]) {
			t.Errorf("Values[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestNormalizeConstant(t *testing.T) {
	s := New("s", []float64{7, 7, 7})
	if _, err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	for i, v := range s.Values {
		if v != 0 {
			t.Errorf("Values[%d] = %v, want 0", i, v)
		}
	}
}

// MinMax names the first non-finite value, wherever it sits, and
// rejects a range whose width overflows.
func TestMinMaxRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		want   string
	}{
		{[]float64{math.NaN(), 1, 2}, "value 0 is NaN"},
		{[]float64{1, 2, math.Inf(-1), math.NaN()}, "value 2 is -Inf"},
		{[]float64{1, math.Inf(1)}, "value 1 is +Inf"},
		{[]float64{1e308, -1e308}, "too wide"},
	} {
		if _, _, err := New("s", tc.values).MinMax(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.values, err, tc.want)
		}
	}
}

func TestNormalizeEmpty(t *testing.T) {
	s := New("s", nil)
	if _, err := s.Normalize(); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestNormalizePropertyRangeAndInverse(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			vals = append(vals, v)
		}
		if len(vals) == 0 {
			return true
		}
		orig := append([]float64(nil), vals...)
		s := New("p", vals)
		sc, err := s.Normalize()
		if err != nil {
			return false
		}
		for i, v := range s.Values {
			if v < 0 || v > 1 {
				return false
			}
			// Inverting must recover the original within relative error.
			back := sc.Min + v*(sc.Max-sc.Min)
			if diff := math.Abs(back - orig[i]); diff > 1e-6*(1+math.Abs(orig[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScaleApplyInvertRoundTrip(t *testing.T) {
	sc := Scale{Min: -4, Max: 12}
	for _, v := range []float64{-4, 0, 3.5, 12} {
		if got := sc.Min + sc.Apply(v)*(sc.Max-sc.Min); !almostEqual(got, v) {
			t.Errorf("round trip of %v = %v", v, got)
		}
	}
	if got := (Scale{Min: 3, Max: 3}).Apply(7); got != 0 {
		t.Errorf("degenerate scale maps 7 to %v, want 0", got)
	}
}

func TestDownsampleMean(t *testing.T) {
	s := NewLabeled("s", []float64{1, 3, 5, 7, 9}, []bool{false, true, false, false, false})
	out, err := Downsample(s, 2, Mean)
	if err != nil {
		t.Fatal(err)
	}
	wantVals := []float64{2, 6, 9}
	wantAnom := []bool{true, false, false}
	if len(out.Values) != 3 {
		t.Fatalf("len = %d, want 3", len(out.Values))
	}
	for i := range wantVals {
		if !almostEqual(out.Values[i], wantVals[i]) {
			t.Errorf("Values[%d] = %v, want %v", i, out.Values[i], wantVals[i])
		}
		if out.Anomalies[i] != wantAnom[i] {
			t.Errorf("Anomalies[%d] = %v, want %v", i, out.Anomalies[i], wantAnom[i])
		}
	}
}

func TestDownsampleFactorOneClones(t *testing.T) {
	s := New("s", []float64{1, 2})
	out, err := Downsample(s, 1, Mean)
	if err != nil {
		t.Fatal(err)
	}
	out.Values[0] = 99
	if s.Values[0] == 99 {
		t.Error("Downsample(1) shares storage with the input")
	}
}

func TestDownsampleErrors(t *testing.T) {
	if _, err := Downsample(New("s", []float64{1}), 0, Mean); err == nil {
		t.Error("factor 0 accepted")
	}
	if _, err := Downsample(New("s", nil), 2, Mean); err == nil {
		t.Error("empty series accepted")
	}
}

func TestDownsamplePreservesAnomalyPresence(t *testing.T) {
	f := func(n uint8, factor uint8, anomalyAt uint8) bool {
		size := int(n%200) + 1
		fac := int(factor%10) + 1
		vals := make([]float64, size)
		anoms := make([]bool, size)
		idx := int(anomalyAt) % size
		anoms[idx] = true
		s := NewLabeled("p", vals, anoms)
		out, err := Downsample(s, fac, Mean)
		if err != nil {
			return false
		}
		return out.AnomalyCount() >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregators(t *testing.T) {
	b := []float64{2, 4, 9}
	if got := Mean(b); !almostEqual(got, 5) {
		t.Errorf("Mean = %v", got)
	}
	if got := Max(b); !almostEqual(got, 9) {
		t.Errorf("Max = %v", got)
	}
}

func TestChronologicalSplitProportions(t *testing.T) {
	vals := make([]float64, 100)
	s := New("s", vals)
	sp, err := ChronologicalSplit(s, 0.6, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Train.Len() != 60 || sp.Validation.Len() != 20 || sp.Test.Len() != 20 {
		t.Fatalf("split sizes = %d/%d/%d", sp.Train.Len(), sp.Validation.Len(), sp.Test.Len())
	}
}

func TestChronologicalSplitCoversEveryPointOnce(t *testing.T) {
	for _, fr := range [][3]float64{{0.6, 0.2, 0.2}, {0.8, 0.1, 0.1}, {0.1, 0.8, 0.1}, {0.34, 0.33, 0.33}} {
		for n := 3; n <= 5002; n++ {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(i)
			}
			sp, err := ChronologicalSplit(New("p", vals), fr[0], fr[1], fr[2])
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, fr, err)
			}
			tr, va, te := sp.Train.Len(), sp.Validation.Len(), sp.Test.Len()
			// Non-empty, contiguous and ordered, covering every point.
			if tr == 0 || va == 0 || te == 0 || tr+va+te != n ||
				sp.Train.Values[0] != 0 ||
				sp.Validation.Values[0] != float64(tr) ||
				sp.Test.Values[0] != float64(tr+va) {
				t.Fatalf("n=%d %v: parts %d/%d/%d", n, fr, tr, va, te)
			}
		}
	}
}

func TestChronologicalSplitRejectsBadFractions(t *testing.T) {
	s := New("s", make([]float64, 10))
	for _, fr := range [][3]float64{{0.5, 0.5, 0.5}, {0, 0.5, 0.5}, {-0.2, 0.6, 0.6}} {
		if _, err := ChronologicalSplit(s, fr[0], fr[1], fr[2]); err == nil {
			t.Errorf("fractions %v accepted", fr)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewLabeled("s", []float64{1, 2}, []bool{true, false})
	c := s.Clone()
	c.Values[0] = 9
	c.Anomalies[1] = true
	if s.Values[0] == 9 || s.Anomalies[1] {
		t.Error("Clone shares storage")
	}
}

func TestNewLabeledPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for mismatched lengths")
		}
	}()
	NewLabeled("s", []float64{1, 2}, []bool{true})
}

func TestSliceSharesStorage(t *testing.T) {
	s := NewLabeled("s", []float64{1, 2, 3}, []bool{false, true, false})
	sub := s.Slice(1, 3)
	if sub.Len() != 2 || sub.Values[0] != 2 || !sub.Anomalies[0] {
		t.Fatalf("slice = %+v", sub)
	}
}

func TestDownsampleRandomizedLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(500) + 1
		factor := rng.Intn(20) + 1
		s := New("s", make([]float64, n))
		out, err := Downsample(s, factor, Mean)
		if err != nil {
			t.Fatal(err)
		}
		want := (n + factor - 1) / factor
		if out.Len() != want {
			t.Fatalf("n=%d factor=%d: len = %d, want %d", n, factor, out.Len(), want)
		}
	}
}
