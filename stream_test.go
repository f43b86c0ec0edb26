package cdt

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestStreamMatchesBatchDetection(t *testing.T) {
	model, _ := trainedModel(t, Options{Omega: 5, Delta: 2})
	target := spikySeries("target", 300, []int{80, 190}, 44)

	// The stream normalizes with a fixed scale; use the target's own
	// range so batch (min-max) and stream agree.
	tmin, tmax, err := target.MinMax()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := model.NewStream(Scale{Min: tmin, Max: tmax})
	if err != nil {
		t.Fatal(err)
	}
	var streamFired = map[int]bool{} // window start -> fired
	for _, v := range target.Values {
		for _, d := range stream.Push(v) {
			streamFired[d.WindowStart] = true
			if d.WindowEnd-d.WindowStart+1 != model.Opts.Omega {
				t.Fatalf("detection span %d..%d, want width %d", d.WindowStart, d.WindowEnd, model.Opts.Omega)
			}
		}
	}
	batch, err := model.DetectWindows(target)
	if err != nil {
		t.Fatal(err)
	}
	for wi, fired := range batch {
		// Batch window wi covers points wi+1..wi+ω → stream start wi+1.
		if fired != streamFired[wi+1] {
			t.Fatalf("window %d: batch %v, stream %v", wi, fired, streamFired[wi+1])
		}
	}
	if !stream.Ready() {
		t.Error("stream should be ready after a full series")
	}
	if stream.Points() != target.Len() {
		t.Errorf("points = %d", stream.Points())
	}
}

func TestStreamWarmup(t *testing.T) {
	model, _ := trainedModel(t, Options{Omega: 5, Delta: 2})
	stream, err := model.NewStream(Scale{Min: 0, Max: 100})
	if err != nil {
		t.Fatal(err)
	}
	// ω labels need ω+2 points; until then nothing can fire.
	for i := 0; i < model.Opts.Omega+1; i++ {
		if got := stream.Push(50); got != nil {
			t.Fatalf("detection during warm-up at point %d", i)
		}
	}
	if stream.Ready() {
		t.Error("ready before the first full window")
	}
}

func TestStreamRejectsDegenerateScale(t *testing.T) {
	model, _ := trainedModel(t, Options{Omega: 5, Delta: 2})
	if _, err := model.NewStream(Scale{Min: 5, Max: 5}); err == nil {
		t.Error("degenerate scale accepted")
	}
	if _, err := model.NewStream(Scale{Min: 7, Max: 3}); err == nil {
		t.Error("inverted scale accepted")
	}
}

func TestStreamClampsOutOfRange(t *testing.T) {
	sc := Scale{Min: 0, Max: 10}
	if sc.normalize(-5) != 0 || sc.normalize(15) != 1 {
		t.Error("clamping wrong")
	}
	if sc.normalize(5) != 0.5 {
		t.Error("normalization wrong")
	}
}

func TestStreamReset(t *testing.T) {
	model, _ := trainedModel(t, Options{Omega: 4, Delta: 2})
	stream, err := model.NewStream(Scale{Min: 0, Max: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		stream.Push(float64(i))
	}
	stream.Reset()
	if stream.Points() != 0 || stream.Ready() {
		t.Error("reset incomplete")
	}
	// Usable again after reset.
	for i := 0; i < 20; i++ {
		stream.Push(float64(i))
	}
	if !stream.Ready() {
		t.Error("stream not ready after refill")
	}
}

// TestStreamLatencyAndReset pins the latency contract documented at the
// top of stream.go: a window's detection is returned by the Push of its
// last covered point's successor (never earlier, never later, at most
// one window per Push), and the incremental engine cursor does not
// change that — including after Reset, where the replayed feed must
// yield detections identical to a fresh stream's, with the first one
// again ω+2 pushes in.
func TestStreamLatencyAndReset(t *testing.T) {
	model, _ := trainedModel(t, Options{Omega: 5, Delta: 2})
	feed := spikySeries("live", 160, []int{60, 120}, 91)
	tmin, tmax, err := feed.MinMax()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := model.NewStream(Scale{Min: tmin, Max: tmax})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []Detection {
		var all []Detection
		for i, v := range feed.Values {
			dets := stream.Push(v)
			if len(dets) > 1 {
				t.Fatalf("push %d returned %d detections, want at most 1", i, len(dets))
			}
			for _, d := range dets {
				// The window's last covered point is the previous push's
				// point (its label needed this push's value), so the
				// detection arrives exactly one point after WindowEnd.
				if d.WindowEnd != i-1 {
					t.Fatalf("push %d detected window ending at %d, want %d", i, d.WindowEnd, i-1)
				}
				if i < model.Opts.Omega+2 {
					t.Fatalf("detection at push %d, before the first window is decidable", i)
				}
				all = append(all, d)
			}
		}
		return all
	}
	fresh := run()
	if len(fresh) == 0 {
		t.Fatal("no detections over a feed with two spikes")
	}
	stream.Reset()
	if replay := run(); !reflect.DeepEqual(fresh, replay) {
		t.Fatalf("post-Reset replay diverged:\nfresh:  %+v\nreplay: %+v", fresh, replay)
	}
}

func TestStreamDetectsSpikeLive(t *testing.T) {
	model, _ := trainedModel(t, Options{Omega: 5, Delta: 2})
	stream, err := model.NewStream(Scale{Min: 40, Max: 200})
	if err != nil {
		t.Fatal(err)
	}
	spike := spikySeries("live", 200, []int{100}, 77)
	var hits []Detection
	for _, v := range spike.Values {
		hits = append(hits, stream.Push(v)...)
	}
	if len(hits) == 0 {
		t.Fatal("spike not detected in streaming mode")
	}
	covered := false
	for _, d := range hits {
		if d.WindowStart <= 100 && 100 <= d.WindowEnd {
			covered = true
		}
	}
	if !covered {
		t.Errorf("no detection covers the spike: %+v", hits)
	}
}

// TestStreamPoints checks the point count: every push counts, Reset
// returns the count to zero, and a replay after Reset counts again from
// there.
func TestStreamPoints(t *testing.T) {
	model, _ := trainedModel(t, Options{Omega: 5, Delta: 2})
	target := spikySeries("target", 300, []int{80, 190}, 44)
	tmin, tmax, err := target.MinMax()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := model.NewStream(Scale{Min: tmin, Max: tmax})
	if err != nil {
		t.Fatal(err)
	}
	if stream.Points() != 0 {
		t.Fatalf("fresh stream points = %d, want 0", stream.Points())
	}
	for run := 0; run < 2; run++ {
		for i, v := range target.Values {
			stream.Push(v)
			if stream.Points() != i+1 {
				t.Fatalf("run %d: points = %d after %d pushes", run, stream.Points(), i+1)
			}
		}
		stream.Reset()
		if stream.Points() != 0 {
			t.Fatalf("run %d: points = %d after Reset, want 0", run, stream.Points())
		}
	}
}

// TestStreamMatchesBatchRandomized holds stream ≡ batch for plain models
// on random feeds: random lengths, readings past both ends of the
// stream's scale (which clamp), and Reset at random points. Every run
// between resets must report exactly the windows — point ranges and
// fired rule indices — that DetectExplained finds over the run's
// stream-normalized readings.
func TestStreamMatchesBatchRandomized(t *testing.T) {
	model, _ := trainedModel(t, Options{Omega: 5, Delta: 2})
	omega := model.Opts.Omega
	scale := Scale{Min: 45, Max: 120} // spikes (200) clamp to 1, troughs and dips to 0
	stream, err := model.NewStream(scale)
	if err != nil {
		t.Fatal(err)
	}
	type window struct {
		start, end int
		fired      []int
	}
	indexes := func(fired []FiredPredicate) []int {
		out := make([]int, len(fired))
		for i, f := range fired {
			out[i] = f.Index
		}
		return out
	}
	rng := rand.New(rand.NewSource(42))
	matched := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		var spikes []int
		for k := rng.Intn(6); k > 0; k-- {
			spikes = append(spikes, rng.Intn(n))
		}
		feed := spikySeries("probe", n, spikes, rng.Int63()).Values
		for k := rng.Intn(3); k > 0; k-- {
			feed[rng.Intn(n)] = -50
		}
		var cuts []int
		for k := rng.Intn(3); k > 0; k-- {
			cuts = append(cuts, rng.Intn(n))
		}
		sort.Ints(cuts)
		start := 0
		for _, end := range append(cuts, n) {
			run := feed[start:end]
			start = end
			stream.Reset()
			var got, want []window
			norm := make([]float64, len(run))
			for i, v := range run {
				norm[i] = scale.normalize(v)
				for _, d := range stream.Push(v) {
					got = append(got, window{d.WindowStart, d.WindowEnd, indexes(d.Fired)})
				}
			}
			if len(run) >= omega+2 {
				dets, err := model.DetectExplained(context.Background(), NewSeries("run", norm))
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				for _, d := range dets {
					want = append(want, window{d.Start, d.End, indexes(d.Fired)})
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, run of %d readings: stream %v, batch %v", trial, len(run), got, want)
			}
			matched += len(want)
		}
	}
	if matched == 0 {
		t.Fatal("no window fired in any trial; the property is vacuous")
	}
}
