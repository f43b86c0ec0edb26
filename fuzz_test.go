package cdt

import (
	"context"
	"strings"
	"testing"
)

// FuzzLoad feeds arbitrary JSON to the model loader: it must never
// panic, and any model it accepts must be usable for prediction.
func FuzzLoad(f *testing.F) {
	f.Add(`{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}`)
	f.Add(`{"version": 1, "options": {"omega": 3, "delta": 2},
	       "tree": {"normal": 2, "anomaly": 2, "composition": [[0,1,1]],
	                "true": {"normal": 0, "anomaly": 2}, "false": {"normal": 2, "anomaly": 0}}}`)
	f.Add(`{}`)
	f.Add(`null`)
	f.Add(`[1,2,3]`)
	// Malformed documents the server's registry must survive: wrong
	// version, absurd hyper-parameters, invalid labels, inconsistent
	// trees, negative counts, and syntax errors.
	f.Add(`{"version": 2, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}`)
	f.Add(`{"version": 1, "options": {"omega": 9000000000000000000, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}`)
	f.Add(`{"version": 1, "options": {"omega": 5, "delta": 200}, "tree": {"normal": 1, "anomaly": 0}}`)
	f.Add(`{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0, "composition": [[99,99,99]], "true": {"normal":0,"anomaly":0}, "false": {"normal":0,"anomaly":0}}}`)
	f.Add(`{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0, "composition": [[0,1,1]]}}`)
	f.Add(`{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": -1, "anomaly": 0}}`)
	f.Add(`{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0, "true": {"normal":0,"anomaly":0}}}`)
	f.Add(`{"version": 1, "options": {"omega": 5, "delta"`)
	// A real artifact, truncated at several byte offsets: the registry
	// can race a half-written file on reload.
	if artifact := savedModelJSON(f); artifact != "" {
		for _, frac := range []int{4, 2, 3} {
			f.Add(artifact[:len(artifact)/frac])
		}
		f.Add(artifact + artifact) // trailing garbage
	}
	// Pyramid documents: malformed shapes LoadAny/LoadPyramid must
	// reject cleanly, plus a real artifact and its truncations.
	f.Add(`{"kind": "pyramid"}`)
	f.Add(`{"kind": "mystery"}`)
	f.Add(`{"version": 1, "kind": "pyramid", "fusion": {"policy": "psychic"}, "scales": []}`)
	f.Add(`{"version": 1, "kind": "pyramid", "fusion": {"policy": "k-of-n", "k": -1}, "scales": [{"factor": 1}]}`)
	f.Add(`{"version": 1, "kind": "pyramid", "fusion": {"policy": "any"},
	       "scales": [{"factor": 2, "model": {"version": 1, "options": {"omega": 3, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}}]}`)
	if artifact := savedPyramidJSON(f); artifact != "" {
		f.Add(artifact)
		for _, frac := range []int{4, 2, 3} {
			f.Add(artifact[:len(artifact)/frac])
		}
	}
	// Dimension-scoring / trainable-fusion documents: malformed weighted
	// and dim shapes must be rejected cleanly, and a real learned-weights
	// artifact (plus truncations) must round-trip through the fuzz body.
	f.Add(`{"version": 1, "kind": "pyramid", "fusion": {"policy": "weighted", "threshold": 0}, "scales": [{"factor": 1, "model": {"version": 1, "options": {"omega": 3, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}}]}`)
	f.Add(`{"version": 1, "kind": "pyramid", "fusion": {"policy": "weighted", "weights": [1, 1, 1], "threshold": 1}, "scales": [{"factor": 1, "model": {"version": 1, "options": {"omega": 3, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}}]}`)
	f.Add(`{"version": 1, "kind": "pyramid", "fusion": {"policy": "weighted", "weights": [0], "threshold": 1}, "scales": [{"factor": 1, "model": {"version": 1, "options": {"omega": 3, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}}]}`)
	// Weighted policies that could never fire, or that invert a member.
	f.Add(`{"version": 1, "kind": "pyramid", "fusion": {"policy": "weighted", "weights": [1, 1], "threshold": 3}, "scales": [{"factor": 1, "model": {"version": 1, "options": {"omega": 3, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}}, {"factor": 2, "model": {"version": 1, "options": {"omega": 3, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}}]}`)
	f.Add(`{"version": 1, "kind": "pyramid", "fusion": {"policy": "weighted", "weights": [-1, 2], "threshold": 1}, "scales": [{"factor": 1, "model": {"version": 1, "options": {"omega": 3, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}}, {"factor": 2, "model": {"version": 1, "options": {"omega": 3, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}}]}`)
	f.Add(`{"version": 1, "kind": "pyramid", "fusion": {"policy": "any"}, "dim": -1, "scales": [{"factor": 1, "model": {"version": 1, "options": {"omega": 3, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}}]}`)
	f.Add(`{"version": 1, "kind": "pyramid", "fusion": {"policy": "any"}, "dim": 9000000000000000000, "scales": [{"factor": 1, "model": {"version": 1, "options": {"omega": 3, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}}]}`)
	if artifact := savedWeightedPyramidJSON(f); artifact != "" {
		f.Add(artifact)
		for _, frac := range []int{4, 2, 3} {
			f.Add(artifact[:len(artifact)/frac])
		}
	}
	f.Fuzz(func(t *testing.T, doc string) {
		// LoadAny must never panic, and any artifact it accepts must
		// detect and render without panicking.
		if art, err := LoadAny(strings.NewReader(doc)); err == nil {
			_ = art.RuleText()
			_ = art.Info()
			_ = art.TrainingAnomalyRate()
			values := make([]float64, art.Info().Omega*4+8)
			for i := range values {
				values[i] = float64(i % 7)
			}
			if _, err := art.DetectExplained(context.Background(), NewSeries("fuzz", values)); err != nil {
				t.Fatalf("accepted artifact cannot detect: %v", err)
			}
		}
		m, err := Load(strings.NewReader(doc))
		if err != nil {
			return
		}
		// Any accepted model must classify a window without panicking.
		labels := make([]Label, m.Opts.Omega)
		_ = m.Predict(labels)
		_ = m.RuleText()
		// And truncating any accepted document must fail or load cleanly,
		// never panic.
		if m2, err := Load(strings.NewReader(doc[:len(doc)/2])); err == nil {
			_ = m2.Predict(make([]Label, m2.Opts.Omega))
		}
	})
}

// savedPyramidJSON trains a tiny two-scale pyramid and returns its
// serialized form, for fuzz seeds. Returns "" when training fails.
func savedPyramidJSON(f *testing.F) string {
	f.Helper()
	values := make([]float64, 64)
	anoms := make([]bool, len(values))
	for i := range values {
		values[i] = float64(1 + i%3)
	}
	for _, at := range []int{11, 30, 31, 32, 33, 50} {
		values[at] = 9
		anoms[at] = true
	}
	pm, err := FitPyramid([]*Series{NewLabeledSeries("seed", values, anoms)},
		Options{Omega: 3, Delta: 2},
		PyramidConfig{Factors: []int{1, 2}, Aggregator: "max"})
	if err != nil {
		return ""
	}
	var b strings.Builder
	if err := pm.Save(&b); err != nil {
		return ""
	}
	return b.String()
}

// savedWeightedPyramidJSON trains a tiny dimension-scoring pyramid with
// learned fusion weights and returns its serialized form, for fuzz
// seeds. Returns "" when training fails.
func savedWeightedPyramidJSON(f *testing.F) string {
	f.Helper()
	n := 64
	quiet := make([]float64, n)
	noisy := make([]float64, n)
	anoms := make([]bool, n)
	for i := range noisy {
		quiet[i] = 2
		noisy[i] = float64(1 + i%3)
	}
	for _, at := range []int{11, 30, 31, 32, 33, 50} {
		noisy[at] = 9
		anoms[at] = true
	}
	feed := &MultiSeries{
		Name:      "seed",
		Dims:      []*Series{NewSeries("quiet", quiet), NewSeries("noisy", noisy)},
		Anomalies: anoms,
	}
	col, err := feed.Dimension(1)
	if err != nil {
		return ""
	}
	pm, err := FitPyramid([]*Series{col}, Options{Omega: 3, Delta: 2},
		PyramidConfig{
			Factors:    []int{1, 2},
			Aggregator: "max",
			Fusion:     Fusion{Policy: FuseWeighted, Threshold: 1},
			Dim:        1,
		})
	if err != nil {
		return ""
	}
	if err := pm.TrainFusion([]*Series{col}); err != nil {
		return ""
	}
	var b strings.Builder
	if err := pm.Save(&b); err != nil {
		return ""
	}
	return b.String()
}

// savedModelJSON trains a tiny model and returns its serialized form,
// for truncation seeds. Returns "" when training fails (the fuzz corpus
// just loses those seeds).
func savedModelJSON(f *testing.F) string {
	f.Helper()
	values := []float64{1, 2, 1, 9, 1, 2, 1, 2, 1, 9, 1, 2, 1, 2, 1}
	anoms := make([]bool, len(values))
	anoms[3], anoms[9] = true, true
	m, err := Fit([]*Series{NewLabeledSeries("seed", values, anoms)}, Options{Omega: 3, Delta: 2})
	if err != nil {
		return ""
	}
	var b strings.Builder
	if err := m.Save(&b); err != nil {
		return ""
	}
	return b.String()
}
