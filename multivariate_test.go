package cdt

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// makeMultiFeed builds a 2-dimensional feed where anomalies manifest
// only in the dimension given by anomalyDim.
func makeMultiFeed(name string, n int, spikes []int, anomalyDim int, seed int64) *MultiSeries {
	rng := rand.New(rand.NewSource(seed))
	dims := make([][]float64, 2)
	for d := range dims {
		dims[d] = make([]float64, n)
		for i := range dims[d] {
			dims[d][i] = 50 + 10*math.Sin(float64(i)/5+float64(d)) + rng.Float64()
		}
	}
	anoms := make([]bool, n)
	for _, at := range spikes {
		dims[anomalyDim][at] = 200
		anoms[at] = true
	}
	return &MultiSeries{
		Name:      name,
		Dims:      []*Series{NewSeries("temp", dims[0]), NewSeries("pressure", dims[1])},
		Anomalies: anoms,
	}
}

func TestFitMultiDetectsSingleDimensionAnomaly(t *testing.T) {
	train := makeMultiFeed("train", 400, []int{60, 150, 250, 340}, 1, 1)
	mm, err := FitMulti([]*MultiSeries{train}, Options{Omega: 5, Delta: 2}, FuseAny)
	if err != nil {
		t.Fatal(err)
	}
	if mm.Dimensions() != 2 {
		t.Fatalf("dimensions = %d", mm.Dimensions())
	}
	rep, err := mm.Evaluate([]*MultiSeries{train})
	if err != nil {
		t.Fatal(err)
	}
	if rep.F1 < 0.9 {
		t.Errorf("FuseAny training F1 = %v", rep.F1)
	}
}

func TestMultiFusionPolicies(t *testing.T) {
	// Anomaly visible only in dimension 1: Any fires, All cannot (the
	// clean dimension never fires).
	train := makeMultiFeed("train", 400, []int{60, 150, 250, 340}, 1, 2)
	any, err := FitMulti([]*MultiSeries{train}, Options{Omega: 5, Delta: 2}, FuseAny)
	if err != nil {
		t.Fatal(err)
	}
	all, err := FitMulti([]*MultiSeries{train}, Options{Omega: 5, Delta: 2}, FuseAll)
	if err != nil {
		t.Fatal(err)
	}
	anyRep, err := any.Evaluate([]*MultiSeries{train})
	if err != nil {
		t.Fatal(err)
	}
	allRep, err := all.Evaluate([]*MultiSeries{train})
	if err != nil {
		t.Fatal(err)
	}
	if anyRep.Confusion.TP <= allRep.Confusion.TP {
		t.Errorf("Any TP %d should exceed All TP %d for single-dim anomalies",
			anyRep.Confusion.TP, allRep.Confusion.TP)
	}
	// Majority of 2 dims == All for 2 dims.
	maj, err := FitMulti([]*MultiSeries{train}, Options{Omega: 5, Delta: 2}, FuseMajority)
	if err != nil {
		t.Fatal(err)
	}
	majRep, err := maj.Evaluate([]*MultiSeries{train})
	if err != nil {
		t.Fatal(err)
	}
	if majRep.Confusion.TP != allRep.Confusion.TP {
		t.Errorf("majority-of-2 TP %d != all TP %d", majRep.Confusion.TP, allRep.Confusion.TP)
	}
}

func TestFitMultiValidation(t *testing.T) {
	good := makeMultiFeed("g", 100, []int{50}, 0, 3)
	if _, err := FitMulti(nil, Options{Omega: 5, Delta: 2}, FuseAny); err == nil {
		t.Error("no feeds accepted")
	}
	if _, err := FitMulti([]*MultiSeries{good}, Options{Omega: 0, Delta: 2}, FuseAny); err == nil {
		t.Error("bad options accepted")
	}
	ragged := &MultiSeries{
		Name:      "r",
		Dims:      []*Series{NewSeries("a", make([]float64, 10)), NewSeries("b", make([]float64, 9))},
		Anomalies: make([]bool, 10),
	}
	if _, err := FitMulti([]*MultiSeries{ragged}, Options{Omega: 3, Delta: 2}, FuseAny); err == nil {
		t.Error("ragged dimensions accepted")
	}
	empty := &MultiSeries{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("zero-dimension feed accepted")
	}
	misflag := &MultiSeries{
		Name:      "m",
		Dims:      []*Series{NewSeries("a", make([]float64, 10))},
		Anomalies: make([]bool, 5),
	}
	if err := misflag.Validate(); err == nil {
		t.Error("misaligned annotation accepted")
	}
	mixed := makeMultiFeed("one", 100, []int{50}, 0, 4)
	mixed.Dims = mixed.Dims[:1]
	if _, err := FitMulti([]*MultiSeries{good, mixed}, Options{Omega: 5, Delta: 2}, FuseAny); err == nil {
		t.Error("mixed dimensionality accepted")
	}
}

func TestMultiDetectWindowsDimensionMismatch(t *testing.T) {
	train := makeMultiFeed("train", 200, []int{60}, 0, 5)
	mm, err := FitMulti([]*MultiSeries{train}, Options{Omega: 5, Delta: 2}, FuseAny)
	if err != nil {
		t.Fatal(err)
	}
	oneDim := &MultiSeries{Name: "x", Dims: train.Dims[:1]}
	if _, err := mm.DetectWindows(oneDim); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestMultiEvaluateRequiresLabels(t *testing.T) {
	train := makeMultiFeed("train", 200, []int{60}, 0, 6)
	mm, err := FitMulti([]*MultiSeries{train}, Options{Omega: 5, Delta: 2}, FuseAny)
	if err != nil {
		t.Fatal(err)
	}
	unlabeled := &MultiSeries{Name: "u", Dims: train.Dims}
	if _, err := mm.Evaluate([]*MultiSeries{unlabeled}); err == nil {
		t.Error("unlabeled feed accepted")
	}
	if _, err := mm.Evaluate(nil); err == nil {
		t.Error("empty evaluation accepted")
	}
}

func TestMultiRuleTextNamesDimensions(t *testing.T) {
	train := makeMultiFeed("train", 300, []int{60, 150}, 1, 7)
	mm, err := FitMulti([]*MultiSeries{train}, Options{Omega: 5, Delta: 2}, FuseAny)
	if err != nil {
		t.Fatal(err)
	}
	text := mm.RuleText()
	for _, want := range []string{`dimension "temp"`, `dimension "pressure"`} {
		if !strings.Contains(text, want) {
			t.Errorf("RuleText missing %q:\n%s", want, text)
		}
	}
	if mm.NumRules() == 0 {
		t.Error("no rules")
	}
	if mm.DimensionModel(1) == nil {
		t.Error("dimension model inaccessible")
	}
}

func TestMultiGeneralizesAcrossFeeds(t *testing.T) {
	trainA := makeMultiFeed("a", 400, []int{60, 150, 250, 340}, 1, 8)
	trainB := makeMultiFeed("b", 400, []int{80, 210, 300}, 1, 9)
	test := makeMultiFeed("t", 300, []int{70, 190}, 1, 10)
	mm, err := FitMulti([]*MultiSeries{trainA, trainB}, Options{Omega: 5, Delta: 2}, FuseAny)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mm.Evaluate([]*MultiSeries{test})
	if err != nil {
		t.Fatal(err)
	}
	if rep.F1 < 0.7 {
		t.Errorf("held-out multivariate F1 = %v", rep.F1)
	}
}

// oracleDetectWindows reimplements the original MultiModel fusion —
// per-dimension DetectWindows accumulated into vote counts, thresholded
// per policy — as a frozen oracle. TestMultiModelDifferential pins
// MultiModel.DetectWindows, which fuses through the shared counting
// form, bit-identical to it.
func oracleDetectWindows(mm *MultiModel, ms *MultiSeries) ([]bool, error) {
	var counts []int
	for d := 0; d < mm.Dimensions(); d++ {
		flags, err := mm.DimensionModel(d).DetectWindows(ms.Dims[d])
		if err != nil {
			return nil, err
		}
		if counts == nil {
			counts = make([]int, len(flags))
		}
		for wi, fired := range flags {
			if fired {
				counts[wi]++
			}
		}
	}
	dims := mm.Dimensions()
	out := make([]bool, len(counts))
	for wi, fired := range counts {
		switch mm.Policy {
		case FuseAll:
			out[wi] = fired == dims
		case FuseMajority:
			out[wi] = fired*2 > dims
		default:
			out[wi] = fired > 0
		}
	}
	return out, nil
}

func TestMultiModelDifferential(t *testing.T) {
	feeds := []*MultiSeries{
		makeMultiFeed("a", 400, []int{60, 150, 250, 340}, 0, 31),
		makeMultiFeed("b", 400, []int{80, 210, 300}, 1, 32),
	}
	eval := []*MultiSeries{
		makeMultiFeed("t1", 300, []int{70, 190}, 0, 33),
		makeMultiFeed("t2", 300, []int{40, 110, 220}, 1, 34),
	}
	for _, policy := range []FusionPolicy{FuseAny, FuseMajority, FuseAll} {
		mm, err := FitMulti(feeds, Options{Omega: 5, Delta: 2}, policy)
		if err != nil {
			t.Fatal(err)
		}
		for _, ms := range eval {
			want, err := oracleDetectWindows(mm, ms)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mm.DetectWindows(ms)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d windows, oracle %d", policy, ms.Name, len(got), len(want))
			}
			for wi := range got {
				if got[wi] != want[wi] {
					t.Fatalf("%s/%s: window %d = %v, oracle %v", policy, ms.Name, wi, got[wi], want[wi])
				}
			}
		}
	}
}

// TestMultiPolicyAssignedAfterFit: Policy is the model's only copy of
// its fusion policy, so assigning it after fitting changes detection
// exactly as fitting under it would, and assigning a policy a
// MultiModel cannot run is an error, never a silent fallback.
func TestMultiPolicyAssignedAfterFit(t *testing.T) {
	train := makeMultiFeed("train", 400, []int{60, 150, 250, 340}, 1, 2)
	opts := Options{Omega: 5, Delta: 2}
	mm, err := FitMulti([]*MultiSeries{train}, opts, FuseAny)
	if err != nil {
		t.Fatal(err)
	}
	anyFlags, err := mm.DetectWindows(train)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FitMulti([]*MultiSeries{train}, opts, FuseAll)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.DetectWindows(train)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(anyFlags, want) {
		t.Fatal("any and all fuse the feed alike; the test is vacuous")
	}
	mm.Policy = FuseAll
	got, err := mm.DetectWindows(train)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("DetectWindows after assigning FuseAll differs from a model fitted under FuseAll")
	}
	mm.Policy = FuseKOfN
	if _, err := mm.DetectWindows(train); err == nil || !strings.Contains(err.Error(), `"temp" "pressure"`) {
		t.Errorf("DetectWindows under FuseKOfN: error %v, want a rejection naming the dimensions", err)
	}
}
