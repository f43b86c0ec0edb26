package cdt

// Allocation tests: batch detection renders every fired window of
// every served series, and a corpus pools the windows of every series
// it trains on, so neither may allocate per detection or per series.
// Test names contain "Allocates" so CI's allocation step, which runs
// without the race detector, selects them.

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// raceEnabled is set by race_test.go under the race detector, which
// drops sync.Pool items at random and so makes allocation counts vary.
var raceEnabled bool

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
}

// TestDetectExplainedAllocatesPerSeriesNotPerDetection: with the label,
// sweep and marks pools warm, a plain model's DetectExplained makes the
// same number of allocations for a series with one detection as for one
// with several hundred — the detections and the slab of fired
// predicates they share; the sweep's Marks go back to the engine — and
// a series with none makes neither.
func TestDetectExplainedAllocatesPerSeriesNotPerDetection(t *testing.T) {
	skipUnderRace(t)
	// A collection could empty the pools mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	model, _ := trainedModel(t, Options{Omega: 5, Delta: 2})
	ctx := context.Background()
	detections := func(s *Series) int {
		t.Helper()
		dets, err := model.DetectExplained(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		return len(dets)
	}
	allocs := func(s *Series) float64 {
		return testing.AllocsPerRun(20, func() { _, _ = model.DetectExplained(ctx, s) })
	}

	quiet := spikySeries("quiet", 2000, nil, 31)
	var spikes []int
	for p := 20; p < 1980; p += 20 {
		spikes = append(spikes, p)
	}
	busy := spikySeries("busy", 2000, spikes, 32)
	// The rule is one peak predicate. Cut after the spike's successor,
	// so the spike's label is the last and a single window holds it.
	spiked := spikySeries("one", 400, []int{200}, 33)
	one := NewSeries("one", spiked.Values[:202])
	if got := detections(quiet); got != 0 {
		t.Fatalf("quiet series: %d detections, want 0", got)
	}
	if got := detections(one); got != 1 {
		t.Fatalf("one-spike series: %d detections, want 1", got)
	}
	if got := detections(busy); got < 300 {
		t.Fatalf("busy series: %d detections, want several hundred", got)
	}

	none, single, many := allocs(quiet), allocs(one), allocs(busy)
	if single != many || none != single-2 {
		t.Fatalf("allocations with 0, 1 and %d detections: %v, %v, %v; want n−2, n, n",
			detections(busy), none, single, many)
	}
	if want := 2.0; many != want {
		t.Fatalf("%v allocations per detecting call, want %v (detections, slab)", many, want)
	}
}

// TestCorpusObservationsAllocatesOnlyItsPool: with the labelings
// cached, pooling a corpus's windows allocates the pool and little else
// — not a slice per series that is copied into it and dropped. The
// fewest bytes over three fresh corpora count, so that an allocation
// elsewhere in the process cannot fail the test.
func TestCorpusObservationsAllocatesOnlyItsPool(t *testing.T) {
	skipUnderRace(t)
	series := []*Series{
		spikySeries("a", 3000, []int{100, 900, 2100}, 41),
		spikySeries("b", 3000, []int{400, 1700}, 42),
		spikySeries("c", 3000, []int{250, 2600}, 43),
	}
	var fewest, pool uint64
	for range 3 {
		c, err := NewCorpus(series)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the labelings through a window size that shares them.
		if _, err := c.Observations(Options{Omega: 5, Delta: 2}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		obs, err := c.Observations(Options{Omega: 8, Delta: 2})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		pool = uint64(len(obs)) * uint64(unsafe.Sizeof(Observation{}))
		if got := after.TotalAlloc - before.TotalAlloc; fewest == 0 || got < fewest {
			fewest = got
		}
	}
	if fewest > pool+pool/10 {
		t.Fatalf("filling a %d-byte pool allocated %d bytes, want at most %d", pool, fewest, pool+pool/10)
	}
}

// TestPyramidDetectExplainedAllocatesPerSeriesNotPerDetection: with the
// pass, label, sweep and marks pools warm, a pyramid's DetectExplained
// makes the same number of allocations for a series with one fused
// detection as for one with several hundred — the slab of fired
// predicates, the slab of breakdowns and the detections; each scale's
// Marks go back to its engine — and a series with none makes none.
func TestPyramidDetectExplainedAllocatesPerSeriesNotPerDetection(t *testing.T) {
	skipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	train := spikySeries("train", 2000, []int{150, 420, 700, 1010, 1330, 1600, 1870}, 1)
	// The ×4 scale votes, but only the ×1 scale's weight reaches the
	// threshold, so each spike stays its own fused run.
	pm, err := FitPyramid([]*Series{train}, Options{Omega: 5, Delta: 2}, PyramidConfig{
		Factors:    []int{1, 4},
		Aggregator: "max",
		Fusion:     Fusion{Policy: FuseWeighted, Weights: []float64{1, 0.5}, Threshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	detections := func(s *Series) (n, multi int) {
		t.Helper()
		dets, err := pm.DetectExplained(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dets {
			if len(d.Scales) > 1 && d.Scales[len(d.Scales)-1].Factor == 4 {
				multi++
			}
		}
		return len(dets), multi
	}
	allocs := func(s *Series) float64 {
		return testing.AllocsPerRun(20, func() { _, _ = pm.DetectExplained(ctx, s) })
	}

	quiet := spikySeries("quiet", 2000, nil, 31)
	var spikes []int
	for p := 20; p < 7980; p += 20 {
		spikes = append(spikes, p)
	}
	busy := spikySeries("busy", 8000, spikes, 32)
	one := spikySeries("one", 2000, []int{1000}, 33)
	if got, _ := detections(quiet); got != 0 {
		t.Fatalf("quiet series: %d detections, want 0", got)
	}
	if got, _ := detections(one); got != 1 {
		t.Fatalf("one-spike series: %d detections, want 1", got)
	}
	if got, multi := detections(busy); got < 300 || multi == 0 {
		t.Fatalf("busy series: %d detections, %d with a ×4 breakdown; want several hundred, some", got, multi)
	}

	none, single, many := allocs(quiet), allocs(one), allocs(busy)
	if single != many || none != single-3 {
		t.Fatalf("allocations with 0, 1 and several hundred detections: %v, %v, %v; want n−3, n, n", none, single, many)
	}
	if want := 3.0; many != want {
		t.Fatalf("%v allocations per detecting call, want %v (fired slab, breakdowns, detections)", many, want)
	}
}
