package evalmetrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestConfusionAdd(t *testing.T) {
	var c Confusion
	c.Add(true, true)
	c.Add(true, false)
	c.Add(false, true)
	c.Add(false, false)
	if c != (Confusion{TP: 1, FP: 1, FN: 1, TN: 1}) {
		t.Fatalf("confusion = %+v", c)
	}
	if c.Total() != 4 {
		t.Errorf("total = %d", c.Total())
	}
}

func TestFromBools(t *testing.T) {
	c := FromBools([]bool{true, true, false}, []bool{true, false, false})
	if c != (Confusion{TP: 1, FP: 1, TN: 1}) {
		t.Fatalf("confusion = %+v", c)
	}
}

func TestPrecisionRecallF1(t *testing.T) {
	c := Confusion{TP: 8, FP: 2, FN: 4, TN: 10}
	if got := c.Precision(); got != 0.8 {
		t.Errorf("precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-8.0/12) > 1e-12 {
		t.Errorf("recall = %v", got)
	}
	p, r := 0.8, 8.0/12
	want := 2 * p * r / (p + r)
	if got := c.F1(); math.Abs(got-want) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, want)
	}
	if got := c.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("accuracy = %v", got)
	}
}

func TestMetricsDegenerateCases(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Error("empty confusion should yield all-zero metrics")
	}
	c = Confusion{TN: 5}
	if c.F1() != 0 {
		t.Error("no positives should give F1 0")
	}
}

func TestF1BoundsProperty(t *testing.T) {
	f := func(tp, fp, fn, tn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), FN: int(fn), TN: int(tn)}
		f1 := c.F1()
		if f1 < 0 || f1 > 1 {
			return false
		}
		// Perfect classification iff F1 == 1 (when positives exist).
		if c.FP == 0 && c.FN == 0 && c.TP > 0 && math.Abs(f1-1) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAverageRanksSimple(t *testing.T) {
	scores := [][]float64{
		{0.9, 0.5, 0.7},
		{0.8, 0.6, 0.7},
	}
	ranks := AverageRanks(scores)
	want := []float64{1, 3, 2}
	for i := range want {
		if ranks[i] != want[i] {
			t.Errorf("rank[%d] = %v, want %v", i, ranks[i], want[i])
		}
	}
}

func TestAverageRanksTies(t *testing.T) {
	for _, tc := range []struct {
		row, want []float64
	}{
		{[]float64{0.5, 0.5, 0.1}, []float64{1.5, 1.5, 3}},
		{[]float64{0.5, 0.9, 0.5}, []float64{2.5, 1, 2.5}},
	} {
		ranks := AverageRanks([][]float64{tc.row})
		for i := range tc.want {
			if ranks[i] != tc.want[i] {
				t.Errorf("%v: ranks = %v, want %v", tc.row, ranks, tc.want)
				break
			}
		}
	}
}

func TestAverageRanksEmpty(t *testing.T) {
	if AverageRanks(nil) != nil {
		t.Error("nil input should give nil")
	}
}

// The sum of ranks per dataset is invariant: n(n+1)/2.
func TestAverageRanksSumProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 || len(raw) > 8 {
			return true
		}
		row := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			row[i] = v
		}
		ranks := AverageRanks([][]float64{row})
		sum := 0.0
		for _, r := range ranks {
			sum += r
		}
		n := float64(len(row))
		return math.Abs(sum-n*(n+1)/2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestThresholdByQuantile(t *testing.T) {
	scores := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	th := ThresholdByQuantile(scores, 0.2)
	flagged := 0
	for _, s := range scores {
		if s > th {
			flagged++
		}
	}
	if flagged != 2 {
		t.Errorf("flagged %d of 10 at contamination 0.2", flagged)
	}
}

func TestThresholdEdgeCases(t *testing.T) {
	if ThresholdByQuantile(nil, 0.5) != 0 {
		t.Error("empty scores")
	}
	// contamination > 1 flags everything above the minimum.
	th := ThresholdByQuantile([]float64{3, 1, 2}, 2)
	if th != 1 {
		t.Errorf("threshold = %v, want 1", th)
	}
	// contamination <= 0 falls back to a tiny positive fraction.
	th = ThresholdByQuantile([]float64{3, 1, 2}, 0)
	if th < 2 {
		t.Errorf("threshold = %v, want near top", th)
	}
}

func TestBinarizeTopFraction(t *testing.T) {
	scores := make([]float64, 100)
	for i := range scores {
		scores[i] = float64(i)
	}
	flags := BinarizeTop(scores, 0.1)
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	if n != 10 {
		t.Errorf("flagged %d, want 10", n)
	}
	// The flagged entries must be the highest scores.
	var flaggedVals []float64
	for i, f := range flags {
		if f {
			flaggedVals = append(flaggedVals, scores[i])
		}
	}
	sort.Float64s(flaggedVals)
	if flaggedVals[0] != 90 {
		t.Errorf("lowest flagged = %v, want 90", flaggedVals[0])
	}
}
