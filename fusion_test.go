package cdt

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// fireMatrix builds a fired/truth pair from compact rows: each row is
// the member indicators followed by the label.
func fireMatrix(rows [][]bool) (fired [][]bool, truth []bool) {
	for _, r := range rows {
		fired = append(fired, r[:len(r)-1])
		truth = append(truth, r[len(r)-1])
	}
	return fired, truth
}

func TestFitFusionWeightsSeparatesSignalFromNoise(t *testing.T) {
	// Member 0 tracks the truth exactly; member 1 fires at random with no
	// relation to it. The fit must weight member 0 at the 1.0 ceiling and
	// member 1 strictly below, and the resulting rule must reproduce the
	// labels on the training matrix.
	fired, truth := fireMatrix([][]bool{
		{true, false, true},
		{true, true, true},
		{false, true, false},
		{false, false, false},
		{true, false, true},
		{false, true, false},
		{true, true, true},
		{false, false, false},
	})
	fu, err := FitFusionWeights(fired, truth)
	if err != nil {
		t.Fatal(err)
	}
	if fu.Policy != FuseWeighted {
		t.Fatalf("policy = %v", fu.Policy)
	}
	if err := fu.Validate("test", 2); err != nil {
		t.Fatalf("learned fusion invalid: %v", err)
	}
	if fu.Weights[0] != 1 {
		t.Errorf("signal weight = %v, want the normalized ceiling 1", fu.Weights[0])
	}
	if fu.Weights[1] >= fu.Weights[0] {
		t.Errorf("noise weight %v not below signal weight %v", fu.Weights[1], fu.Weights[0])
	}
	for i, row := range fired {
		if got := fu.Decide(row); got != truth[i] {
			t.Errorf("sample %d: Decide = %v, want %v (fusion %+v)", i, got, truth[i], fu)
		}
	}
}

func TestFitFusionWeightsDeterministic(t *testing.T) {
	fired, truth := fireMatrix([][]bool{
		{true, false, true, true},
		{false, true, false, false},
		{true, true, false, true},
		{false, false, true, false},
		{true, false, false, true},
	})
	first, err := FitFusionWeights(fired, truth)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		again, err := FitFusionWeights(fired, truth)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("trial %d: refit diverged: %+v vs %+v", trial, again, first)
		}
	}
}

// fitLogisticPerSample is fitLogistic with one logistic evaluation per
// sample, the direct reading of the gradient.
func fitLogisticPerSample(fired [][]bool, truth []bool, n int) ([]float64, float64) {
	w := make([]float64, n)
	grad := make([]float64, n)
	bias := 0.0
	for it := 0; it < 200; it++ {
		clear(grad)
		gBias := 0.0
		for t, row := range fired {
			z := bias
			for i, fi := range row {
				if fi {
					z += w[i]
				}
			}
			d := 1 / (1 + math.Exp(-z))
			if truth[t] {
				d--
			}
			gBias += d
			for i, fi := range row {
				if fi {
					grad[i] += d
				}
			}
		}
		step := 0.5 / float64(len(fired))
		bias -= step * gBias
		for i := range w {
			w[i] -= step * grad[i]
		}
	}
	return w, bias
}

// Evaluating the logistic once per (fire pattern, label) key must give
// the per-sample fit's weights and bias bit for bit, over 1 to
// maxPyramidScales members and label mixes including all-true and
// all-false.
func TestFitLogisticMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := trial%maxPyramidScales + 1
		fired := make([][]bool, rng.Intn(300)+1)
		truth := make([]bool, len(fired))
		fireRate, anomRate := rng.Intn(4)+1, []int{0, 2, 5, 1000}[trial%4]
		for s := range fired {
			switch anomRate {
			case 0: // all false
			case 1000:
				truth[s] = true
			default:
				truth[s] = rng.Intn(anomRate) == 0
			}
			fired[s] = make([]bool, n)
			for i := range fired[s] {
				fired[s][i] = rng.Intn(fireRate+1) == 0
			}
		}
		fu, err := FitFusionWeights(fired, truth)
		if err != nil {
			t.Fatal(err)
		}
		want := weightedFusion(fitLogisticPerSample(fired, truth, n))
		if math.Float64bits(fu.Threshold) != math.Float64bits(want.Threshold) {
			t.Fatalf("trial %d: threshold %v, per-sample %v", trial, fu.Threshold, want.Threshold)
		}
		for i := range want.Weights {
			if math.Float64bits(fu.Weights[i]) != math.Float64bits(want.Weights[i]) {
				t.Fatalf("trial %d: weight %d is %v, per-sample %v", trial, i, fu.Weights[i], want.Weights[i])
			}
		}
	}
}

func TestFitFusionWeightsDegenerateFallsBackToUniform(t *testing.T) {
	// All-normal labels give the fit nothing to separate; the fallback
	// must be the uniform FuseAny-shaped rule, never an all-zero vector
	// (which Validate rejects).
	fired, truth := fireMatrix([][]bool{
		{true, false, false},
		{false, true, false},
		{false, false, false},
	})
	fu, err := FitFusionWeights(fired, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fu.Weights, []float64{1, 1}) || fu.Threshold != 1 {
		t.Errorf("degenerate fit = %+v, want uniform weights with threshold 1", fu)
	}
	if err := fu.Validate("test", 2); err != nil {
		t.Errorf("fallback fusion invalid: %v", err)
	}
}

func TestFitFusionKPicksBestQuorum(t *testing.T) {
	// Single members fire on normals too; only two-member agreement marks
	// the anomalies. k=2 scores perfectly, k=1 takes false positives.
	fired, truth := fireMatrix([][]bool{
		{true, true, true},
		{true, false, false},
		{false, true, false},
		{true, true, true},
		{false, false, false},
	})
	fu, err := FitFusionK(fired, truth)
	if err != nil {
		t.Fatal(err)
	}
	if fu.Policy != FuseKOfN || fu.K != 2 {
		t.Fatalf("fit = %+v, want k=2", fu)
	}
	// Ties keep the smaller, more sensitive quorum: with one member and a
	// perfect signal, k=1 wins outright.
	solo, err := FitFusionK([][]bool{{true}, {false}}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if solo.K != 1 {
		t.Errorf("solo fit k = %d, want 1", solo.K)
	}
}

func TestFitFusionSampleValidation(t *testing.T) {
	cases := []struct {
		name  string
		fired [][]bool
		truth []bool
	}{
		{"no samples", nil, nil},
		{"label count", [][]bool{{true}}, []bool{true, false}},
		{"no members", [][]bool{{}}, []bool{true}},
		{"ragged rows", [][]bool{{true, false}, {true}}, []bool{true, false}},
	}
	for _, tc := range cases {
		if _, err := FitFusionWeights(tc.fired, tc.truth); err == nil {
			t.Errorf("FitFusionWeights %s: accepted", tc.name)
		}
		if _, err := FitFusionK(tc.fired, tc.truth); err == nil {
			t.Errorf("FitFusionK %s: accepted", tc.name)
		}
	}
}

// TestFusionValidateNamesContext: a rejected fusion names whose fusion
// is broken — the model store's audit log and the CLI relay these
// verbatim, so "3 weights for 2 members" alone is not actionable.
func TestFusionValidateNamesContext(t *testing.T) {
	cases := []struct {
		name string
		f    Fusion
		want string
	}{
		{
			"quorum range",
			Fusion{Policy: FuseKOfN, K: 5},
			"pyramid scales [1 2]: fusion quorum k=5 outside [1,2]",
		},
		{
			"weight arity",
			Fusion{Policy: FuseWeighted, Weights: []float64{1, 1, 1}, Threshold: 1},
			"pyramid scales [1 2]: 3 fusion weights for 2 members",
		},
		{
			"all-zero weights",
			Fusion{Policy: FuseWeighted, Weights: []float64{0, 0}, Threshold: 1},
			"pyramid scales [1 2]: all 2 fusion weights are zero",
		},
		{
			"zero threshold",
			Fusion{Policy: FuseWeighted, Threshold: 0},
			"pyramid scales [1 2]: fusion threshold 0",
		},
		{
			"negative weight",
			Fusion{Policy: FuseWeighted, Weights: []float64{-1, 2}, Threshold: 1},
			"pyramid scales [1 2]: fusion weight 0 is -1, want >= 0",
		},
		{
			"threshold above the total weight",
			Fusion{Policy: FuseWeighted, Weights: []float64{1, 1}, Threshold: 3},
			"pyramid scales [1 2]: fusion threshold 3 exceeds the total weight 2",
		},
		{
			"threshold above the default weights",
			Fusion{Policy: FuseWeighted, Threshold: 5},
			"pyramid scales [1 2]: fusion threshold 5 exceeds the total weight 2",
		},
	}
	for _, tc := range cases {
		err := tc.f.Validate("pyramid scales [1 2]", 2)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
	// A multivariate model names its dimensions: it runs only the
	// parameterless policies, so a quorum policy is refused at fit time.
	train := makeMultiFeed("train", 200, []int{60}, 0, 5)
	_, err := FitMulti([]*MultiSeries{train}, Options{Omega: 5, Delta: 2}, FuseKOfN)
	if err == nil || !strings.Contains(err.Error(), `multivariate dimensions ["temp" "pressure"]`) {
		t.Errorf("FitMulti under FuseKOfN: error %v, want the dimension names in context", err)
	}
}

// TestFusionThresholdAtTotalWeightValidates: a threshold equal to the
// total weight fires when every member fires, so it is valid. The total
// sums in member order, as the point fusion and FitFusionWeights do, so
// a threshold built as that sum (FitFusionWeights caps at it) validates
// even where floating-point addition in another order would round
// below it.
func TestFusionThresholdAtTotalWeightValidates(t *testing.T) {
	weights := []float64{0.1, 0.2, 0.3}
	total, reversed := 0.0, 0.0
	for i := range weights {
		total += weights[i]
		reversed += weights[len(weights)-1-i]
	}
	if !(reversed < total) {
		t.Fatalf("reverse-order sum %v is not below the member-order sum %v; the case is vacuous", reversed, total)
	}
	f := Fusion{Policy: FuseWeighted, Weights: weights, Threshold: total}
	if err := f.Validate("test", len(weights)); err != nil {
		t.Fatalf("threshold at the total weight rejected: %v", err)
	}
	if !f.Decide([]bool{true, true, true}) {
		t.Error("threshold at the total weight does not fire when every member fires")
	}
}

// TestFusionPolicyNamesRoundTrip: every policy's name parses back to the
// policy, as pyramid documents and `cdt train -fusion` rely on.
func TestFusionPolicyNamesRoundTrip(t *testing.T) {
	want := map[FusionPolicy]string{
		FuseAny:      "any",
		FuseMajority: "majority",
		FuseAll:      "all",
		FuseKOfN:     "k-of-n",
		FuseWeighted: "weighted",
	}
	for p := FuseAny; p <= FuseWeighted; p++ {
		name := p.String()
		if name != want[p] {
			t.Errorf("policy %d: String = %q, want %q", int(p), name, want[p])
		}
		back, err := ParseFusionPolicy(name)
		if err != nil || back != p {
			t.Errorf("ParseFusionPolicy(%q) = %v, %v; want %v", name, back, err, p)
		}
	}
}

// trainedMultiPyramid trains a weighted pyramid over dimension 1 of a
// two-dimensional feed and learns its fusion weights — the end-to-end
// shape `cdt train -scales 1,2 -dim 1 -fusion weighted` drives. It
// returns the pyramid and the training feed's scored column.
func trainedMultiPyramid(t *testing.T) (*PyramidModel, *Series) {
	t.Helper()
	train := makeMultiFeed("train", 400, []int{60, 150, 250, 340}, 1, 11)
	cfg := PyramidConfig{
		Factors:    []int{1, 2},
		Aggregator: "max",
		Fusion:     Fusion{Policy: FuseWeighted, Threshold: 1},
		Dim:        1,
	}
	col, err := train.Dimension(cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := FitPyramid([]*Series{col}, Options{Omega: 5, Delta: 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.TrainFusion([]*Series{col}); err != nil {
		t.Fatal(err)
	}
	return pm, col
}

func TestPyramidMultiTrainsWeightedFusionEndToEnd(t *testing.T) {
	pm, train := trainedMultiPyramid(t)
	fu := pm.Config.Fusion
	if fu.Policy != FuseWeighted || len(fu.Weights) != 2 {
		t.Fatalf("learned fusion = %+v", fu)
	}
	if err := pm.Config.Validate(); err != nil {
		t.Fatalf("learned config invalid: %v", err)
	}
	// Point-level scoring: a fired window covers ω points around each
	// one-point spike, so recall is the meaningful gate here, not F1.
	rep, err := pm.Evaluate([]*Series{train})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Confusion.TP < 3 || rep.F1 <= 0 {
		t.Errorf("training confusion = %+v (F1 %v) after learning weights", rep.Confusion, rep.F1)
	}
	// Flags land on the annotated points of the anomalous dimension.
	flags, err := pm.PointFlags(train)
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	for p, anom := range train.Anomalies {
		if anom && flags[p] {
			hit++
		}
	}
	if hit < 3 {
		t.Errorf("only %d/4 annotated points flagged", hit)
	}
	// Refitting the same corpus reproduces the same weights bit for bit.
	again, _ := trainedMultiPyramid(t)
	if !reflect.DeepEqual(again.Config.Fusion, fu) {
		t.Errorf("refit fusion diverged: %+v vs %+v", again.Config.Fusion, fu)
	}
}

func TestPyramidDimWeightedPersistRoundTrip(t *testing.T) {
	pm, train := trainedMultiPyramid(t)
	var first bytes.Buffer
	if err := pm.Save(&first); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadPyramid(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Config, pm.Config) {
		t.Errorf("config diverged: %+v vs %+v", restored.Config, pm.Config)
	}
	want, err := pm.DetectExplained(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.DetectExplained(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("multivariate detections diverged after reload")
	}
	var second bytes.Buffer
	if err := restored.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("save/load/save not stable for a dim+weighted pyramid")
	}
}

func TestPyramidDefaultDocumentOmitsCompositionFields(t *testing.T) {
	// A univariate pyramid's document must not mention the dim field at
	// all: pre-composition artifacts stay byte-stable.
	pm, _ := trainedPyramid(t)
	var buf bytes.Buffer
	if err := pm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"dim"`) {
		t.Error("default pyramid document carries a dim field")
	}
	if strings.Contains(buf.String(), `"weights"`) {
		t.Error("default pyramid document carries fusion weights")
	}
}

func TestLoadPyramidRejectsBadComposedDocuments(t *testing.T) {
	scale := `{"factor":1,"model":{"version":1,"options":{"omega":3,"delta":1},"tree":{"normal":1,"anomaly":0}}}`
	scale2 := `{"factor":2,"model":{"version":1,"options":{"omega":3,"delta":1},"tree":{"normal":1,"anomaly":0}}}`
	cases := []struct {
		name, doc, wantErr string
	}{
		{
			"negative dim",
			`{"version":1,"kind":"pyramid","fusion":{"policy":"any"},"dim":-1,"scales":[` + scale + `]}`,
			"dim -1",
		},
		{
			"weight arity",
			`{"version":1,"kind":"pyramid","fusion":{"policy":"weighted","weights":[1,1],"threshold":1},"scales":[` + scale + `]}`,
			"2 fusion weights for 1 members",
		},
		{
			"all-zero weights",
			`{"version":1,"kind":"pyramid","fusion":{"policy":"weighted","weights":[0],"threshold":1},"scales":[` + scale + `]}`,
			"fusion weights are zero",
		},
		{
			"zero threshold",
			`{"version":1,"kind":"pyramid","fusion":{"policy":"weighted","threshold":0},"scales":[` + scale + `]}`,
			"threshold 0",
		},
		{
			"negative weight",
			`{"version":1,"kind":"pyramid","fusion":{"policy":"weighted","weights":[-1,2],"threshold":1},"scales":[` + scale + `,` + scale2 + `]}`,
			"fusion weight 0 is -1",
		},
		{
			"threshold above the total weight",
			`{"version":1,"kind":"pyramid","fusion":{"policy":"weighted","weights":[1,1],"threshold":3},"scales":[` + scale + `,` + scale2 + `]}`,
			"fusion threshold 3 exceeds the total weight 2",
		},
		{
			"threshold above the default weights",
			`{"version":1,"kind":"pyramid","fusion":{"policy":"weighted","threshold":2},"scales":[` + scale + `]}`,
			"fusion threshold 2 exceeds the total weight 1",
		},
	}
	for _, tc := range cases {
		_, err := LoadPyramid(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.wantErr)
		}
	}
}

// rangesOf extracts the [start, end] point ranges from explained
// detections, in report order.
func rangesOf(dets []WindowDetection) [][2]int {
	out := make([][2]int, len(dets))
	for i, d := range dets {
		out[i] = [2]int{d.Start, d.End}
	}
	return out
}

// TestScoreRangesMatchesDetectExplained pins the lean shadow-scoring
// surface to the explained path it bypasses: identical detection ranges
// for plain models and for pyramids under both the default and the
// weighted fusion policy, with per-scale counts consistent with the
// explained per-scale breakdowns.
func TestScoreRangesMatchesDetectExplained(t *testing.T) {
	assertSame := func(name string, art Artifact, probe *Series) RangeStats {
		t.Helper()
		st, err := art.ScoreRanges(context.Background(), probe)
		if err != nil {
			t.Fatalf("%s: ScoreRanges: %v", name, err)
		}
		dets, err := art.DetectExplained(context.Background(), probe)
		if err != nil {
			t.Fatalf("%s: DetectExplained: %v", name, err)
		}
		if len(dets) == 0 {
			t.Fatalf("%s: probe produced no detections; the comparison is vacuous", name)
		}
		if want := rangesOf(dets); !reflect.DeepEqual(st.Ranges, want) {
			t.Fatalf("%s: ScoreRanges = %v, DetectExplained ranges = %v", name, st.Ranges, want)
		}
		return st
	}

	model, _ := trainedModel(t, Options{Omega: 5, Delta: 2})
	plainProbe := spikySeries("probe", 300, []int{40, 170, 260}, 5)
	if st := assertSame("plain", model, plainProbe); st.ScaleFired != nil || st.ScaleWindows != nil {
		t.Fatalf("plain: scale stats = %v / %v, want nil", st.ScaleFired, st.ScaleWindows)
	}

	pm, _ := trainedPyramid(t)
	probe := plateauSeries("probe", 480, []int{60, 260}, 300, 40, 11)
	st := assertSame("pyramid/any", pm, probe)
	// Under FuseAny every fired scale window reaches a fused detection's
	// breakdown, so the lean pre-fusion counts must agree with the
	// distinct (scale, window) pairs the explained path reports.
	dets, err := pm.DetectExplained(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	fired := make([]map[int]bool, pm.NumScales())
	for i := range fired {
		fired[i] = make(map[int]bool)
	}
	for _, d := range dets {
		for _, sd := range d.Scales {
			for i, f := range pm.Scales() {
				if f == sd.Factor {
					fired[i][sd.Window] = true
				}
			}
		}
	}
	for i := range fired {
		if st.ScaleFired[i] != len(fired[i]) {
			t.Fatalf("scale x%d: ScoreRanges fired %d windows, explained breakdown has %d",
				pm.Scales()[i], st.ScaleFired[i], len(fired[i]))
		}
		if st.ScaleFired[i] == 0 || st.ScaleWindows[i] < st.ScaleFired[i] {
			t.Fatalf("scale x%d: fired %d of %d windows, want firings within swept",
				pm.Scales()[i], st.ScaleFired[i], st.ScaleWindows[i])
		}
	}

	// Weighted fusion exercises the shared fusion kernel.
	train := plateauSeries("train", 480, []int{50, 150, 250}, 350, 40, 7)
	wpm, err := FitPyramid([]*Series{train}, Options{Omega: 5, Delta: 2}, PyramidConfig{
		Factors:    []int{1, 4},
		Aggregator: "max",
		Fusion:     Fusion{Policy: FuseWeighted, Threshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wpm.TrainFusion([]*Series{train}); err != nil {
		t.Fatal(err)
	}
	assertSame("pyramid/weighted", wpm, train)

	// A dimension-scoring pyramid scores its column's readings on every
	// surface, the lean path included.
	mpm, col := trainedMultiPyramid(t)
	assertSame("pyramid/dim", mpm, col)
}
