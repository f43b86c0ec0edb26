package cdt

// The pyramid's batch scoring path as it was before coverage runs, kept
// as the oracle the run-based path is held to: normalize a copy,
// resample it per scale, paint each scale's coverage one point at a
// time, decide the fusion per point, read the fused runs off the flags
// and find each run's breakdown by scanning every scale detection.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cdt/internal/engine"
	"cdt/internal/timeseries"
)

// paintCoverage flags the points that the fired windows of a scale at
// factor f cover, one point at a time.
func paintCoverage(fired []bool, f, omega, n int) []bool {
	cov := make([]bool, n)
	for w, on := range fired {
		if !on {
			continue
		}
		start := (w + 1) * f
		end := (w+omega+1)*f - 1
		if end >= n {
			end = n - 1
		}
		for p := start; p <= end; p++ {
			cov[p] = true
		}
	}
	return cov
}

// fusePointsOracle applies fu per point over per-scale coverage flags.
func fusePointsOracle(fu Fusion, coverage [][]bool) []bool {
	flags := make([]bool, len(coverage[0]))
	for p := range flags {
		count, weight := 0, 0.0
		for i := range coverage {
			if coverage[i][p] {
				count++
				weight += fu.weight(i)
			}
		}
		flags[p] = fu.decide(count, weight, len(coverage))
	}
	return flags
}

// flagRuns reads the maximal runs of set flags.
func flagRuns(flags []bool) []rawRange {
	var runs []rawRange
	for p := 0; p < len(flags); {
		if !flags[p] {
			p++
			continue
		}
		start := p
		for p < len(flags) && flags[p] {
			p++
		}
		runs = append(runs, rawRange{start: start, end: p - 1})
	}
	return runs
}

// oracleScore scores a series as the per-point pipeline did, returning
// what DetectExplained, ScoreRanges and PointFlags returned.
func oracleScore(pm *PyramidModel, s *Series) ([]WindowDetection, RangeStats, []bool, error) {
	ns, err := ensureNormalized(s)
	if err != nil {
		return nil, RangeStats{}, nil, err
	}
	n := ns.Len()
	scales := len(pm.models)
	coverage := make([][]bool, scales)
	perScale := make([][]ScaleDetection, scales)
	st := RangeStats{ScaleFired: make([]int, scales), ScaleWindows: make([]int, scales)}
	for i, m := range pm.models {
		f := pm.Config.Factors[i]
		ds, err := ResampleTransform{Factor: f, Aggregator: pm.Config.Aggregator}.Apply([]*Series{ns})
		var marks *engine.Marks
		if err == nil {
			marks, err = m.detectMarks(context.Background(), ds)
		}
		if err != nil {
			return nil, RangeStats{}, nil, fmt.Errorf("cdt: pyramid scale x%d: %w", f, err)
		}
		fired := make([]bool, marks.NumWindows())
		for w := range fired {
			if fired[w] = marks.Fired(w); !fired[w] {
				continue
			}
			st.ScaleFired[i]++
			start, end := (w+1)*f, min((w+pm.Opts.Omega+1)*f-1, n-1)
			perScale[i] = append(perScale[i], ScaleDetection{
				Factor: f, Window: w, Start: start, End: end,
				Fired: m.appendFired(nil, marks, w),
			})
		}
		coverage[i] = paintCoverage(fired, f, pm.Opts.Omega, n)
		st.ScaleWindows[i] = marks.NumWindows()
	}
	if err := pm.Config.Fusion.Validate(fmt.Sprintf("pyramid scales %v", pm.Config.Factors), scales); err != nil {
		return nil, RangeStats{}, nil, err
	}
	flags := fusePointsOracle(pm.Config.Fusion, coverage)
	var out []WindowDetection
	for _, r := range flagRuns(flags) {
		var sds []ScaleDetection
		for i := range perScale {
			for _, sd := range perScale[i] {
				if sd.Start <= r.end && r.start <= sd.End {
					sds = append(sds, sd)
				}
			}
		}
		var fired []FiredPredicate
		if len(sds) > 0 {
			fired = sds[0].Fired
		}
		out = append(out, WindowDetection{
			Window: len(out), Start: r.start, End: r.end,
			Fired: fired, Type: pm.classifyScales(sds), Scales: sds,
		})
		st.Ranges = append(st.Ranges, [2]int{r.start, r.end})
	}
	return out, st, flags, nil
}

// windowSet is a scale's fired windows as flags.
type windowSet []bool

func (ws windowSet) NextFired(w int) int {
	for ; w < len(ws); w++ {
		if ws[w] {
			return w
		}
	}
	return -1
}

// randomPolicies returns every policy over members scales: any,
// majority, all, k-of-n at every k, and weighted with random weights
// (zeros included, nil for uniform) and thresholds, one of them the
// member-order total.
func randomPolicies(rng *rand.Rand, members int) []Fusion {
	fus := []Fusion{{Policy: FuseAny}, {Policy: FuseMajority}, {Policy: FuseAll}}
	for k := 1; k <= members; k++ {
		fus = append(fus, Fusion{Policy: FuseKOfN, K: k})
	}
	fus = append(fus, Fusion{Policy: FuseWeighted, Threshold: float64(1 + rng.Intn(members))})
	for range 3 {
		w := make([]float64, members)
		total := 0.0
		for i := range w {
			if rng.Intn(4) > 0 {
				w[i] = rng.Float64()
			}
			total += w[i]
		}
		if total == 0 {
			w[rng.Intn(members)] = 0.3
			total = 0
			for _, wi := range w {
				total += wi
			}
		}
		fus = append(fus,
			Fusion{Policy: FuseWeighted, Weights: w, Threshold: total},
			Fusion{Policy: FuseWeighted, Weights: w, Threshold: total * (0.05 + 0.9*rng.Float64())})
	}
	return fus
}

// randomCoverage draws one scale's coverage flags over n points: empty,
// full, scattered points, runs placed anywhere, the first and last
// points included, or the projection of random fired windows at a
// random factor and ω.
func randomCoverage(rng *rand.Rand, n int) []bool {
	cov := make([]bool, n)
	switch rng.Intn(6) {
	case 0:
	case 5:
		f, omega := 1+rng.Intn(9), 1+rng.Intn(8)
		fired := make([]bool, (n-1)/f)
		for w := range fired {
			fired[w] = rng.Intn(4) == 0
		}
		return paintCoverage(fired, f, omega, n)
	case 1:
		for p := range cov {
			cov[p] = true
		}
	case 2:
		for p := range cov {
			cov[p] = rng.Intn(3) == 0
		}
	default:
		for range 1 + rng.Intn(6) {
			start := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				start = 0
			case 1:
				start = n - 1 - rng.Intn(min(n, 4))
			}
			for p := start; p < min(n, start+1+rng.Intn(12)); p++ {
				cov[p] = true
			}
		}
	}
	return cov
}

// TestFuseRunsMatchesPerPointOracle holds the segment walk to the
// per-point fusion: for 1 to 8 scales of random coverage and every
// policy, fuseRuns over the scales' runs gives the runs of the oracle's
// flags, and painting them (as PointFlags does) gives its flags.
func TestFuseRunsMatchesPerPointOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := range 3000 {
		n := 1 + rng.Intn(120)
		if trial%10 == 0 {
			n = 1 + rng.Intn(3)
		}
		scales := 1 + rng.Intn(maxPyramidScales)
		coverage := make([][]bool, scales)
		runs := make([][]rawRange, scales)
		for i := range coverage {
			coverage[i] = randomCoverage(rng, n)
			runs[i] = flagRuns(coverage[i])
		}
		for _, fu := range randomPolicies(rng, scales) {
			if err := fu.Validate("test", scales); err != nil {
				t.Fatalf("trial %d: drew an invalid policy %+v: %v", trial, fu, err)
			}
			want := fusePointsOracle(fu, coverage)
			got := fuseRuns(nil, fu, runs)
			if !slices.Equal(got, flagRuns(want)) {
				t.Fatalf("trial %d, %d scales over %d points, %+v:\nruns %v\nfused %v, want %v",
					trial, scales, n, fu, runs, got, flagRuns(want))
			}
			if flags := paintRuns(make([]bool, n), got); !reflect.DeepEqual(flags, want) {
				t.Fatalf("trial %d: painted flags %v, want %v", trial, flags, want)
			}
		}
	}
}

// TestAppendCoverageMatchesPainting holds the run merge to painting
// each fired window's points: random factors, window sizes and fired
// sets, including empty ones, adjacent and overlapping windows, and
// windows whose projection the series' end cuts short.
func TestAppendCoverageMatchesPainting(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := range 5000 {
		f := 1 + rng.Intn(17)
		omega := 1 + rng.Intn(10)
		n := f + 1 + rng.Intn(300)
		// Window w starts at point (w+1)·f, inside the series.
		fired := make(windowSet, (n-1)/f)
		density := rng.Intn(4)
		for w := range fired {
			switch density {
			case 1:
				fired[w] = rng.Intn(8) == 0
			case 2:
				fired[w] = rng.Intn(2) == 0
			case 3:
				fired[w] = true
			}
		}
		want := flagRuns(paintCoverage(fired, f, omega, n))
		prefix := rawRange{start: -5, end: n} // runs append after it, unmerged
		got := appendCoverage([]rawRange{prefix}, fired, f, omega, n)
		if got[0] != prefix || !slices.Equal(got[1:], want) {
			t.Fatalf("trial %d (f=%d ω=%d n=%d, fired %v): runs %v, want %v", trial, f, omega, n, fired, got[1:], want)
		}
	}
}

// TestDownsampleNormalizedMatchesResample holds the pooled downsample
// kernel to resampling ensureNormalized's copy, bit for bit, for mean
// and max buckets: series inside and outside [0,1], constant series,
// negative ranges, ±0 at the minimum, and lengths that leave a partial
// last bucket.
func TestDownsampleNormalizedMatchesResample(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	fixed := [][]float64{
		{0.5, 0.5, 0.5, 0.5, 0.5},
		{7, 7, 7, 7, 7, 7, 7},
		{-3, -3, -3, -3},
		{0, math.Copysign(0, -1), 0.25, math.Copysign(0, -1), 0, 1, 0.5},
		{0, math.Copysign(0, -1), 3, math.Copysign(0, -1), 0, 0, 5, math.Copysign(0, -1), math.Copysign(0, -1)},
		{math.Copysign(0, -1), 0, -2, 0, math.Copysign(0, -1), -2, -1},
		{-9, -4.5, -7, -1e-3, -8, -2},
		{1e6, -1e6, 3.25, 0, 1e-9},
	}
	var series [][]float64
	series = append(series, fixed...)
	for range 400 {
		n := 1 + rng.Intn(70)
		lo, span := 0.0, 1.0
		switch rng.Intn(4) {
		case 1:
			lo, span = -50+100*rng.Float64(), 100*rng.Float64()
		case 2:
			lo, span = -1000*rng.Float64(), 10*rng.Float64()
		case 3:
			lo, span = 0.1, 0.8
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = lo + span*rng.Float64()
			if rng.Intn(8) == 0 {
				v[i] = lo
			}
		}
		series = append(series, v)
	}
	for _, values := range series {
		s := NewSeries("s", values)
		ns, err := ensureNormalized(s)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := s.MinMax()
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range []string{"mean", "max"} {
			for f := 2; f <= 9; f++ {
				want, err := ResampleTransform{Factor: f, Aggregator: agg}.Apply([]*Series{ns})
				if err != nil {
					t.Fatal(err)
				}
				got := downsampleNormalized([]float64{-1}, values, f, agg == "max", timeseries.Scale{Min: lo, Max: hi})
				if len(got) != 1+len(want.Values) || got[0] != -1 {
					t.Fatalf("%s f=%d over %v: %d buckets after the prefix, want %d", agg, f, values, len(got)-1, len(want.Values))
				}
				for b, w := range want.Values {
					if math.Float64bits(got[1+b]) != math.Float64bits(w) {
						t.Fatalf("%s f=%d over %v: bucket %d = %v, want %v", agg, f, values, b, got[1+b], w)
					}
				}
			}
		}
	}
}

// TestPyramidScoringMatchesPerPointPipeline holds DetectExplained,
// ScoreRanges and PointFlags to the per-point pipeline, nil slices
// included, on pyramids of 1 to 8 scales over mean and max buckets,
// under every policy, on probes inside and outside [0,1], constant and
// too short for a slow scale.
func TestPyramidScoringMatchesPerPointPipeline(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	train := plateauSeries("train", 720, []int{60, 150, 260, 420, 530}, 600, 60, 7)
	type shape struct {
		factors []int
		agg     string
		omega   int
	}
	shapes := []shape{
		{[]int{1}, "", 5},
		{[]int{1, 4}, "max", 5},
		{[]int{1, 2, 8}, "mean", 4},
		{[]int{1, 3, 9, 27}, "max", 3},
		{[]int{1, 2, 3, 4, 5, 6, 7, 8}, "mean", 3},
	}
	for _, sh := range shapes {
		pm, err := FitPyramid([]*Series{train}, Options{Omega: sh.omega, Delta: 2}, PyramidConfig{Factors: sh.factors, Aggregator: sh.agg})
		if err != nil {
			t.Fatalf("%v: %v", sh.factors, err)
		}
		policies := randomPolicies(rng, len(sh.factors))
		detections := 0
		for trial := range 24 {
			n := 60 + rng.Intn(700)
			var spikes []int
			for _, p := range []int{20 + rng.Intn(30), 100 + rng.Intn(40), 230} {
				if p < n {
					spikes = append(spikes, p)
				}
			}
			probe := plateauSeries("probe", n, spikes, 300+rng.Intn(200), 10+rng.Intn(60), int64(trial))
			switch trial % 4 {
			case 1: // inside [0,1]
				for i, v := range probe.Values {
					probe.Values[i] = (v - 40) / 200
				}
			case 2: // a negative range
				for i, v := range probe.Values {
					probe.Values[i] = -3 * v
				}
			case 3:
				if trial == 3 {
					for i := range probe.Values {
						probe.Values[i] = 42
					}
				}
			}
			pm.Config.Fusion = policies[trial%len(policies)]
			wantDets, wantStats, wantFlags, wantErr := oracleScore(pm, probe)
			dets, err := pm.DetectExplained(ctx, probe)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%v trial %d: DetectExplained error %v, want %v", sh.factors, trial, err, wantErr)
			}
			st, err := pm.ScoreRanges(ctx, probe)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%v trial %d: ScoreRanges error %v, want %v", sh.factors, trial, err, wantErr)
			}
			flags, err := pm.PointFlags(probe)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%v trial %d: PointFlags error %v, want %v", sh.factors, trial, err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			detections += len(dets)
			if !reflect.DeepEqual(dets, wantDets) {
				t.Fatalf("%v trial %d under %+v: DetectExplained\n%+v\nwant\n%+v", sh.factors, trial, pm.Config.Fusion, dets, wantDets)
			}
			if !reflect.DeepEqual(st, wantStats) {
				t.Fatalf("%v trial %d under %+v: ScoreRanges %+v, want %+v", sh.factors, trial, pm.Config.Fusion, st, wantStats)
			}
			if !reflect.DeepEqual(flags, wantFlags) {
				t.Fatalf("%v trial %d under %+v: PointFlags differ", sh.factors, trial, pm.Config.Fusion)
			}
		}
		if detections == 0 {
			t.Errorf("%v: no probe produced a detection", sh.factors)
		}
	}
	// Series too short for the slowest scale fail there, as they did.
	pm, err := FitPyramid([]*Series{train}, Options{Omega: 5, Delta: 2}, PyramidConfig{Factors: []int{1, 16}, Aggregator: "max"})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 8, 40, 60} {
		probe := plateauSeries("short", n, nil, 0, 0, 1)
		_, _, _, wantErr := oracleScore(pm, probe)
		_, err := pm.DetectExplained(ctx, probe)
		if wantErr == nil || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%d points: error %v, want %v", n, err, wantErr)
		}
	}
}
