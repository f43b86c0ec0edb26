package cdt

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// plateauSeries generates a seasonal series with labeled point spikes
// and one sustained plateau anomaly — the mixed point/collective feed
// the pyramid's typing is about.
func plateauSeries(name string, n int, spikes []int, plateauStart, plateauLen int, seed int64) *Series {
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	anoms := make([]bool, n)
	for i := range values {
		values[i] = 50 + 10*math.Sin(float64(i)/5) + rng.Float64()
	}
	for _, idx := range spikes {
		values[idx] = 200
		anoms[idx] = true
	}
	for i := plateauStart; i < plateauStart+plateauLen && i < n; i++ {
		values[i] = 150
		anoms[i] = true
	}
	return NewLabeledSeries(name, values, anoms)
}

func TestPyramidConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  PyramidConfig
		ok   bool
	}{
		{"single scale", PyramidConfig{Factors: []int{1}}, true},
		{"three scales", PyramidConfig{Factors: []int{1, 4, 16}, Aggregator: "max"}, true},
		{"empty", PyramidConfig{}, false},
		{"missing base", PyramidConfig{Factors: []int{2, 4}}, false},
		{"not increasing", PyramidConfig{Factors: []int{1, 4, 4}}, false},
		{"too many", PyramidConfig{Factors: []int{1, 2, 3, 4, 5, 6, 7, 8, 9}}, false},
		{"bad aggregator", PyramidConfig{Factors: []int{1, 2}, Aggregator: "sum"}, false},
		{"k of n", PyramidConfig{Factors: []int{1, 2, 4}, Fusion: Fusion{Policy: FuseKOfN, K: 2}}, true},
		{"bad quorum", PyramidConfig{Factors: []int{1, 2}, Fusion: Fusion{Policy: FuseKOfN, K: 3}}, false},
		{"weighted", PyramidConfig{Factors: []int{1, 2}, Fusion: Fusion{Policy: FuseWeighted, Weights: []float64{2, 1}, Threshold: 2}}, true},
		{"weight arity", PyramidConfig{Factors: []int{1, 2}, Fusion: Fusion{Policy: FuseWeighted, Weights: []float64{1}, Threshold: 1}}, false},
		{"zero threshold", PyramidConfig{Factors: []int{1, 2}, Fusion: Fusion{Policy: FuseWeighted, Threshold: 0}}, false},
		{"threshold at the default total", PyramidConfig{Factors: []int{1, 2, 4}, Fusion: Fusion{Policy: FuseWeighted, Threshold: 3}}, true},
		{"threshold above the default total", PyramidConfig{Factors: []int{1, 2, 4}, Fusion: Fusion{Policy: FuseWeighted, Threshold: 5}}, false},
		{"negative weight", PyramidConfig{Factors: []int{1, 2}, Fusion: Fusion{Policy: FuseWeighted, Weights: []float64{-1, 2}, Threshold: 1}}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestFusionDecide(t *testing.T) {
	fired := func(bits ...bool) []bool { return bits }
	cases := []struct {
		name string
		f    Fusion
		in   []bool
		want bool
	}{
		{"any hit", Fusion{Policy: FuseAny}, fired(false, true, false), true},
		{"any miss", Fusion{Policy: FuseAny}, fired(false, false), false},
		{"majority hit", Fusion{Policy: FuseMajority}, fired(true, true, false), true},
		{"majority tie misses", Fusion{Policy: FuseMajority}, fired(true, false), false},
		{"all hit", Fusion{Policy: FuseAll}, fired(true, true), true},
		{"all miss", Fusion{Policy: FuseAll}, fired(true, false), false},
		{"k of n hit", Fusion{Policy: FuseKOfN, K: 2}, fired(true, false, true), true},
		{"k of n miss", Fusion{Policy: FuseKOfN, K: 3}, fired(true, false, true), false},
		{"weighted hit", Fusion{Policy: FuseWeighted, Weights: []float64{3, 1}, Threshold: 3}, fired(true, false), true},
		{"weighted miss", Fusion{Policy: FuseWeighted, Weights: []float64{3, 1}, Threshold: 3}, fired(false, true), false},
		{"weighted default weights", Fusion{Policy: FuseWeighted, Threshold: 2}, fired(true, true, false), true},
	}
	for _, tc := range cases {
		if got := tc.f.Decide(tc.in); got != tc.want {
			t.Errorf("%s: Decide(%v) = %v, want %v", tc.name, tc.in, got, tc.want)
		}
	}
}

// TestPyramidFusionAssignedAfterFit: Config.Fusion is the pyramid's
// only copy of its fusion policy, so a policy assigned after fitting is
// the one detection fuses under, Info reports and Save writes — and a
// saved-and-reloaded copy answers as the original does. An invalid one
// is an error on every scoring surface and in Save.
func TestPyramidFusionAssignedAfterFit(t *testing.T) {
	pm, train := trainedPyramid(t)
	ctx := context.Background()
	before, err := pm.DetectExplained(ctx, train)
	if err != nil {
		t.Fatal(err)
	}
	all := Fusion{Policy: FuseAll}
	ref, err := FitPyramid([]*Series{train}, pm.Opts, PyramidConfig{
		Factors:    pm.Config.Factors,
		Aggregator: pm.Config.Aggregator,
		Fusion:     all,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.DetectExplained(ctx, train)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, want) {
		t.Fatal("any and all fuse the series alike; the test is vacuous")
	}

	pm.Config.Fusion = all
	got, err := pm.DetectExplained(ctx, train)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("DetectExplained after assigning FuseAll differs from a pyramid fitted under FuseAll")
	}
	if f := pm.Info().Fusion; f != "all" {
		t.Errorf("Info().Fusion = %q, want \"all\"", f)
	}
	var buf bytes.Buffer
	if err := pm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadPyramid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f := restored.Info().Fusion; f != "all" {
		t.Errorf("reloaded Info().Fusion = %q, want \"all\"", f)
	}
	again, err := restored.DetectExplained(ctx, train)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, got) {
		t.Error("reloaded pyramid detects differently from the one it was saved from")
	}

	// A policy LoadPyramid would refuse is refused by scoring too,
	// instead of fusing as something else (k=0 would flag every point).
	pm.Config.Fusion = Fusion{Policy: FuseKOfN}
	const want0 = "pyramid scales [1 4]: fusion quorum k=0"
	if _, err := pm.DetectExplained(ctx, train); err == nil || !strings.Contains(err.Error(), want0) {
		t.Errorf("DetectExplained under k=0: error %v, want %q", err, want0)
	}
	if _, err := pm.ScoreRanges(ctx, train); err == nil || !strings.Contains(err.Error(), want0) {
		t.Errorf("ScoreRanges under k=0: error %v, want %q", err, want0)
	}
	if _, err := pm.PointFlags(train); err == nil || !strings.Contains(err.Error(), want0) {
		t.Errorf("PointFlags under k=0: error %v, want %q", err, want0)
	}
	if err := pm.Save(io.Discard); err == nil || !strings.Contains(err.Error(), want0) {
		t.Errorf("Save under k=0: error %v, want %q", err, want0)
	}
}

// TestPyramidSingleScaleGolden pins the acceptance criterion: a 1-scale
// pyramid under the FuseAny default reproduces the plain model exactly —
// same point flags, same fused ranges, same headline predicates.
func TestPyramidSingleScaleGolden(t *testing.T) {
	train := spikySeries("train", 400, []int{50, 120, 200, 310}, 1)
	test := spikySeries("test", 300, []int{80, 190}, 99)
	opts := Options{Omega: 5, Delta: 2}

	model, err := Fit([]*Series{train}, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := FitPyramid([]*Series{train}, opts, PyramidConfig{Factors: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if pm.NumRules() != model.NumRules() {
		t.Fatalf("NumRules: pyramid %d, model %d", pm.NumRules(), model.NumRules())
	}

	for _, s := range []*Series{train, test} {
		wantFlags, err := model.PointFlags(s)
		if err != nil {
			t.Fatal(err)
		}
		gotFlags, err := pm.PointFlags(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotFlags, wantFlags) {
			t.Fatalf("%s: pyramid point flags diverge from model", s.Name)
		}

		// Fused detections are exactly the maximal runs of the model's
		// point flags, and the headline predicates come from the base
		// scale's firings.
		dets, err := pm.DetectExplained(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		var runs []rawRange
		for p := 0; p < len(wantFlags); {
			if !wantFlags[p] {
				p++
				continue
			}
			start := p
			for p < len(wantFlags) && wantFlags[p] {
				p++
			}
			runs = append(runs, rawRange{start: start, end: p - 1})
		}
		if len(dets) != len(runs) {
			t.Fatalf("%s: %d fused detections, want %d runs", s.Name, len(dets), len(runs))
		}
		for i, d := range dets {
			if d.Start != runs[i].start || d.End != runs[i].end {
				t.Errorf("%s: detection %d spans [%d,%d], want [%d,%d]", s.Name, i, d.Start, d.End, runs[i].start, runs[i].end)
			}
			if d.Type == "" {
				t.Errorf("%s: detection %d has no type tag", s.Name, i)
			}
			if len(d.Scales) == 0 || d.Scales[0].Factor != 1 {
				t.Errorf("%s: detection %d has no base-scale breakdown", s.Name, i)
			}
			if len(d.Fired) == 0 {
				t.Errorf("%s: detection %d has no fired predicates", s.Name, i)
			}
		}
	}
}

func TestPyramidMultiScaleDetectsAndTypes(t *testing.T) {
	train := plateauSeries("train", 480, []int{50, 150, 250}, 350, 40, 7)
	pm, err := FitPyramid([]*Series{train}, Options{Omega: 5, Delta: 2}, PyramidConfig{
		Factors:    []int{1, 4},
		Aggregator: "max",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := pm.Scales(); !reflect.DeepEqual(got, []int{1, 4}) {
		t.Fatalf("Scales() = %v", got)
	}

	dets, err := pm.DetectExplained(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 {
		t.Fatal("no fused detections on training data")
	}
	types := map[AnomalyType]int{}
	for _, d := range dets {
		switch d.Type {
		case TypePoint, TypeContextual, TypeCollective:
			types[d.Type]++
		default:
			t.Fatalf("detection [%d,%d] has invalid type %q", d.Start, d.End, d.Type)
		}
		if len(d.Scales) == 0 {
			t.Errorf("detection [%d,%d] has no scale breakdown", d.Start, d.End)
		}
		for _, sd := range d.Scales {
			if sd.Factor != 1 && sd.Factor != 4 {
				t.Errorf("scale breakdown has factor %d", sd.Factor)
			}
			if len(sd.Fired) == 0 {
				t.Errorf("scale x%d firing carries no predicates", sd.Factor)
			}
		}
	}
	// The plateau spans 40 points: both scales see it, so at least one
	// detection must be typed collective.
	if types[TypeCollective] == 0 {
		t.Errorf("no collective detection over the plateau (types: %v)", types)
	}

	rep, err := pm.Evaluate([]*Series{train})
	if err != nil {
		t.Fatal(err)
	}
	// Point-level scoring over-covers by construction (a fired window
	// flags all ω points around a 1-point spike), so recall is the
	// meaningful floor here, not F1.
	if r := rep.Confusion.Recall(); r < 0.9 {
		t.Errorf("point-level training recall = %v", r)
	}

	text := pm.RuleText()
	for _, header := range []string{"scale x1 ", "scale x4 "} {
		if !strings.Contains(text, header) {
			t.Errorf("RuleText missing %q header:\n%s", header, text)
		}
	}
	if !strings.Contains(pm.Explain(), "scale x4 ") {
		t.Error("Explain missing per-scale header")
	}
}

// TestPyramidStreamMatchesBase pins the streaming contract for the base
// scale: a 1-scale pyramid stream emits exactly the plain stream's
// detections (same windows, same predicates), tagged with scale 1 and a
// type.
func TestPyramidStreamMatchesBase(t *testing.T) {
	train := spikySeries("train", 400, []int{50, 120, 200, 310}, 1)
	test := spikySeries("test", 300, []int{80, 190}, 99)
	opts := Options{Omega: 5, Delta: 2}

	model, err := Fit([]*Series{train}, opts)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := FitPyramid([]*Series{train}, opts, PyramidConfig{Factors: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := test.Values[0], test.Values[0]
	for _, v := range test.Values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	scale := Scale{Min: lo, Max: hi}
	base, err := model.NewStream(scale)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pm.NewStream(scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range test.Values {
		want := base.Push(v)
		got := ps.Push(v)
		if len(got) != len(want) {
			t.Fatalf("pyramid stream emitted %d detections, base %d", len(got), len(want))
		}
		for i := range got {
			if got[i].WindowStart != want[i].WindowStart || got[i].WindowEnd != want[i].WindowEnd {
				t.Fatalf("window [%d,%d], want [%d,%d]",
					got[i].WindowStart, got[i].WindowEnd, want[i].WindowStart, want[i].WindowEnd)
			}
			if !reflect.DeepEqual(got[i].Fired, want[i].Fired) {
				t.Fatal("fired predicates diverge")
			}
			if got[i].Scale != 1 || got[i].Type == "" {
				t.Fatalf("detection missing scale/type tags: %+v", got[i])
			}
		}
	}
	if ps.Points() != base.Points() {
		t.Errorf("points: pyramid %d, base %d", ps.Points(), base.Points())
	}
	if ps.Ready() != base.Ready() {
		t.Error("readiness diverges")
	}
}

func TestPyramidStreamMultiScale(t *testing.T) {
	train := plateauSeries("train", 480, []int{50, 150, 250}, 350, 40, 7)
	pm, err := FitPyramid([]*Series{train}, Options{Omega: 5, Delta: 2}, PyramidConfig{
		Factors:    []int{1, 4},
		Aggregator: "max",
	})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pm.NewStream(Scale{Min: 0, Max: 210})
	if err != nil {
		t.Fatal(err)
	}
	var total int
	seenScales := map[int]bool{}
	for _, v := range train.Values {
		for _, d := range ps.Push(v) {
			total++
			seenScales[d.Scale] = true
			if d.Type != TypePoint && d.Type != TypeContextual && d.Type != TypeCollective {
				t.Fatalf("invalid type %q", d.Type)
			}
			if d.WindowStart < 0 || d.WindowEnd >= ps.Points() {
				t.Fatalf("detection [%d,%d] outside consumed range (n=%d)", d.WindowStart, d.WindowEnd, ps.Points())
			}
		}
	}
	if total == 0 {
		t.Fatal("no streaming detections")
	}
	if !seenScales[1] {
		t.Error("base scale never fired")
	}
	if ps.Points() != len(train.Values) {
		t.Errorf("points = %d, want %d", ps.Points(), len(train.Values))
	}
	ps.Reset()
	if ps.Points() != 0 || ps.Ready() {
		t.Error("reset did not clear stream state")
	}
}

// TestPyramidReusesCorpusCache pins the "per-resolution corpora are just
// more cache keys" design: two pyramid fits over one corpus share the
// derived resolutions.
func TestPyramidReusesCorpusCache(t *testing.T) {
	train := plateauSeries("train", 480, []int{50, 150, 250}, 350, 40, 7)
	c, err := NewCorpus([]*Series{train})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PyramidConfig{Factors: []int{1, 4}, Aggregator: "max"}
	if _, err := c.FitPyramid(Options{Omega: 5, Delta: 2}, cfg); err != nil {
		t.Fatal(err)
	}
	r1, err := c.AtResolution(4, "max")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.AtResolution(4, "max")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("derived corpus not memoized")
	}
	if d1, err := c.AtResolution(4, ""); err != nil {
		t.Fatal(err)
	} else if d2, err := c.AtResolution(4, "mean"); err != nil || d1 != d2 {
		t.Errorf(`aggregator "" and "mean" derived different corpora (%p, %p, %v)`, d1, d2, err)
	}
	if base, err := c.AtResolution(1, ""); err != nil || base != c {
		t.Errorf("factor 1 should return the receiver (got %p, %v)", base, err)
	}
	stats := r1.Stats()
	if stats.WindowMisses == 0 {
		t.Error("derived corpus windows were never computed through its cache")
	}
	// A second fit at the same hyper-parameters is all cache hits on the
	// derived corpus.
	if _, err := c.FitPyramid(Options{Omega: 5, Delta: 2}, cfg); err != nil {
		t.Fatal(err)
	}
	after := r1.Stats()
	if after.WindowMisses != stats.WindowMisses {
		t.Errorf("repeat fit recomputed windows: misses %d -> %d", stats.WindowMisses, after.WindowMisses)
	}
}

// scaleWindow keys one fired scale window in original-resolution points
// — the comparison unit between a pyramid stream's detections and the
// per-scale breakdowns of batch DetectExplained.
type scaleWindow struct {
	factor, start, end int
	fired              string
}

func firedKey(fired []FiredPredicate) string {
	idx := make([]int, len(fired))
	for i, fp := range fired {
		idx[i] = fp.Index
	}
	return fmt.Sprint(idx)
}

// assertStreamMatchesBatch compares the scale windows a pyramid stream
// emits over probe (scaled by the probe's own min/max) with the
// per-scale breakdowns batch DetectExplained reports. Batch windows
// whose successor bucket is partial are left out: the stream never
// scores a partial bucket. It returns how many windows matched at
// factors above 1.
func assertStreamMatchesBatch(t *testing.T, name string, pm *PyramidModel, probe *Series) (matched, coarse int) {
	t.Helper()
	n := probe.Len()
	batch := make(map[scaleWindow]bool)
	dets, err := pm.DetectExplained(context.Background(), probe)
	if err != nil {
		t.Fatalf("%s: DetectExplained: %v", name, err)
	}
	for _, d := range dets {
		for _, sd := range d.Scales {
			if (sd.Window+pm.Opts.Omega+2)*sd.Factor > n {
				continue
			}
			batch[scaleWindow{sd.Factor, sd.Start, sd.End, firedKey(sd.Fired)}] = true
		}
	}
	lo, hi, err := probe.MinMax()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pm.NewStream(Scale{Min: lo, Max: hi})
	if err != nil {
		t.Fatal(err)
	}
	stream := make(map[scaleWindow]bool)
	for _, v := range probe.Values {
		for _, d := range ps.Push(v) {
			stream[scaleWindow{d.Scale, d.WindowStart, d.WindowEnd, firedKey(d.Fired)}] = true
		}
	}
	for w := range stream {
		if !batch[w] {
			t.Fatalf("%s: stream emitted %+v, batch did not", name, w)
		}
	}
	for w := range batch {
		if !stream[w] {
			t.Fatalf("%s: batch fired %+v, stream did not", name, w)
		}
		if w.factor > 1 {
			coarse++
		}
	}
	return len(batch), coarse
}

// TestPyramidStreamMatchesBatchRandomized holds stream ≡ batch for
// pyramids on random probes whose values lie outside [0,1] (so batch
// normalizes them): three-scale FuseAny pyramids over max and mean
// buckets, and a pyramid trained over dimension 1 of a multivariate
// feed, which streams and batch-scores that column's readings.
func TestPyramidStreamMatchesBatchRandomized(t *testing.T) {
	opts := Options{Omega: 5, Delta: 2}
	train := plateauSeries("train", 960, []int{50, 150, 250, 600, 800}, 350, 64, 7)
	pyramids := map[string]*PyramidModel{}
	for _, agg := range []string{"max", "mean"} {
		pm, err := FitPyramid([]*Series{train}, opts, PyramidConfig{Factors: []int{1, 4, 16}, Aggregator: agg})
		if err != nil {
			t.Fatal(err)
		}
		pyramids[agg] = pm
	}
	col, err := makeMultiFeed("train", 600, []int{60, 150, 151, 152, 250, 340, 480}, 1, 11).Dimension(1)
	if err != nil {
		t.Fatal(err)
	}
	dim, err := FitPyramid([]*Series{col}, opts, PyramidConfig{Factors: []int{1, 4}, Aggregator: "max", Dim: 1})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	const probes = 300
	matched := map[string]int{}
	coarse := map[string]int{}
	for i := 0; i < probes; i++ {
		n := 120 + rng.Intn(400)
		var spikes []int
		for k := rng.Intn(5); k > 0; k-- {
			spikes = append(spikes, rng.Intn(n))
		}
		probe := plateauSeries("probe", n, spikes, rng.Intn(n), 8+rng.Intn(40), rng.Int63())
		for _, agg := range []string{"max", "mean"} {
			m, c := assertStreamMatchesBatch(t, fmt.Sprintf("probe %d/%s", i, agg), pyramids[agg], probe)
			matched[agg] += m
			coarse[agg] += c
		}
		feed := makeMultiFeed("probe", n, spikes, 1, rng.Int63())
		column, err := feed.Dimension(dim.Config.Dim)
		if err != nil {
			t.Fatal(err)
		}
		m, c := assertStreamMatchesBatch(t, fmt.Sprintf("probe %d/dim", i), dim, column)
		matched["dim"] += m
		coarse["dim"] += c
	}
	for _, name := range []string{"max", "mean", "dim"} {
		if matched[name] == 0 || coarse[name] == 0 {
			t.Errorf("%s: %d windows matched, %d above factor 1; the property is vacuous", name, matched[name], coarse[name])
		}
	}
}
