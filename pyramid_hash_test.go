package cdt

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"cdt/internal/datasets/sge"
)

// pyramidScoringHash is the SHA-256 of every pyramid scoring surface's
// JSON output over TestPyramidScoringBitIdentity's fixed configs and
// probes. A change to it is a change in what pyramids detect.
const pyramidScoringHash = "fa3a9a4381554c0bf7f8e7026b853bcd4135e5bc1ad68470bb3009d83c1a5f37"

// TestPyramidScoringBitIdentity hashes the JSON-encoded output of every
// pyramid scoring surface — DetectExplained, ScoreRanges, PointFlags,
// the learned Fusion and Evaluate — for four univariate pyramids (any
// over max buckets, learned weighted over mean buckets, learned k-of-n,
// majority) and a learned weighted pyramid over dimension 1 of a
// multivariate feed, and pins the digest. Any refactor of the scoring
// path must leave it unchanged.
func TestPyramidScoringBitIdentity(t *testing.T) {
	ctx := context.Background()
	h := sha256.New()
	enc := json.NewEncoder(h)
	put := func(v any) {
		t.Helper()
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	detections := 0
	// score hashes one pyramid's learned fusion, its Evaluate report and,
	// per probe, DetectExplained, the ScoreRanges ranges (plus per-scale
	// counts when scaleStats is set) and PointFlags.
	score := func(pm *PyramidModel, probes []*Series, scaleStats bool) {
		t.Helper()
		put(pm.Config.Fusion)
		rep, err := pm.Evaluate(probes)
		if err != nil {
			t.Fatal(err)
		}
		put(rep)
		for _, p := range probes {
			dets, err := pm.DetectExplained(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			detections += len(dets)
			put(dets)
			st, err := pm.ScoreRanges(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			// nil and empty range lists encode alike.
			put(append([][2]int{}, st.Ranges...))
			if scaleStats {
				put(st.ScaleFired)
				put(st.ScaleWindows)
			}
			flags, err := pm.PointFlags(p)
			if err != nil {
				t.Fatal(err)
			}
			put(flags)
		}
	}

	opts := Options{Omega: 5, Delta: 2}
	train := plateauSeries("train", 480, []int{50, 150, 250}, 350, 40, 7)
	probes := []*Series{
		plateauSeries("probe-a", 480, []int{60, 260}, 300, 40, 11),
		plateauSeries("probe-b", 333, []int{20, 111, 200}, 250, 25, 12),
		spikySeries("probe-c", 300, []int{40, 170, 260}, 5),
	}
	configs := []PyramidConfig{
		{Factors: []int{1, 4}, Aggregator: "max"},
		{Factors: []int{1, 2, 8}, Fusion: Fusion{Policy: FuseWeighted, Threshold: 1}},
		{Factors: []int{1, 3, 9}, Aggregator: "max", Fusion: Fusion{Policy: FuseKOfN, K: 1}},
		{Factors: []int{1, 2, 4}, Fusion: Fusion{Policy: FuseMajority}},
	}
	for _, cfg := range configs {
		pm, err := FitPyramid([]*Series{train}, opts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := pm.TrainFusion([]*Series{train}); err != nil {
			t.Fatal(err)
		}
		score(pm, probes, true)
	}

	// The dimension-scoring pyramid trains and scores column 1 of each
	// feed. Its per-scale counts stay out of the digest, which was
	// recorded before ScoreRanges accepted a dim pyramid's input.
	column := func(ms *MultiSeries) *Series {
		t.Helper()
		col, err := ms.Dimension(1)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	mtrain := column(makeMultiFeed("train", 400, []int{60, 150, 250, 340}, 1, 11))
	pm, err := FitPyramid([]*Series{mtrain}, opts, PyramidConfig{
		Factors:    []int{1, 2, 4},
		Aggregator: "max",
		Fusion:     Fusion{Policy: FuseWeighted, Threshold: 1},
		Dim:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.TrainFusion([]*Series{mtrain}); err != nil {
		t.Fatal(err)
	}
	score(pm, []*Series{
		column(makeMultiFeed("probe-a", 400, []int{80, 200, 320}, 1, 4)),
		column(makeMultiFeed("probe-b", 257, []int{30, 31, 32, 140}, 1, 5)),
	}, false)
	if detections == 0 {
		t.Fatal("no probe produced a detection; the digest pins nothing")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pyramidScoringHash {
		t.Fatalf("pyramid scoring digest = %s, want %s", got, pyramidScoringHash)
	}
}

// pyramidServingHash is the SHA-256 of TestPyramidServingDigest's
// scoring output: a serving-shaped pyramid over 384 stretches of hourly
// electricity readings. A change to it is a change in what served
// pyramids return.
const pyramidServingHash = "e0355ca1c7d77d8d5a43c743e78e10b67718576cc3b72cde3bb85c7bf9348c5b"

// TestPyramidServingDigest hashes what a served pyramid returns on the
// traffic the repository benchmark sends it: factors ×1/×4/×16 over max
// buckets, ω = 8, δ = 2, weighted fusion learned on a second year, and
// 2,000-reading stretches of sge.Electricity at seeds 1–3. Every
// DetectExplained, ScoreRanges and PointFlags result is encoded as
// returned, so a nil slice and an empty one hash differently.
func TestPyramidServingDigest(t *testing.T) {
	const (
		year    = 365 * 24
		stretch = 2000
		count   = 128 // stretches per seed
	)
	el := sge.Electricity(sge.ElectricityOptions{Hours: 2 * year, Seed: 2}).Series[0]
	pm, err := FitPyramid([]*Series{el.Slice(0, year)}, Options{Omega: 8, Delta: 2}, PyramidConfig{
		Factors:    []int{1, 4, 16},
		Aggregator: "max",
		Fusion:     Fusion{Policy: FuseWeighted, Threshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.TrainFusion([]*Series{el.Slice(year, 2*year)}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h := sha256.New()
	enc := json.NewEncoder(h)
	put := func(v any) {
		t.Helper()
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	put(pm.Config.Fusion)
	detections := 0
	for seed := int64(1); seed <= 3; seed++ {
		feed := sge.Electricity(sge.ElectricityOptions{Hours: count * stretch, Seed: seed}).Series[0]
		for k := range count {
			s := NewSeries(fmt.Sprintf("electricity-%d-%d", seed, k), feed.Values[k*stretch:(k+1)*stretch])
			dets, err := pm.DetectExplained(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			detections += len(dets)
			put(dets)
			st, err := pm.ScoreRanges(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			put(st)
			flags, err := pm.PointFlags(s)
			if err != nil {
				t.Fatal(err)
			}
			put(flags)
		}
	}
	if detections < 1000 {
		t.Fatalf("%d detections over %d stretches; the digest pins too little", detections, 3*count)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pyramidServingHash {
		t.Fatalf("pyramid serving digest = %s, want %s (%d detections)", got, pyramidServingHash, detections)
	}
}
