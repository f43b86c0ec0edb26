package cdt

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cdt/internal/core"
	"cdt/internal/rules"
)

func trainedModel(t *testing.T, opts Options) (*Model, *Series) {
	t.Helper()
	train := spikySeries("train", 400, []int{50, 120, 200, 310}, 21)
	model, err := Fit([]*Series{train}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return model, train
}

func TestSaveLoadRoundTrip(t *testing.T) {
	model, train := trainedModel(t, Options{Omega: 5, Delta: 2})
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Opts.Omega != 5 || restored.Opts.Delta != 2 {
		t.Fatalf("options = %+v", restored.Opts)
	}
	// The restored model must detect identically.
	obs, err := ObservationsOf(train, model.Opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range obs {
		if model.Predict(o.Labels) != restored.Predict(o.Labels) {
			t.Fatalf("window %d: predictions diverge after reload", i)
		}
	}
	if model.RuleText() != restored.RuleText() {
		t.Errorf("rules diverge:\n%s\nvs\n%s", model.RuleText(), restored.RuleText())
	}
}

func TestSaveLoadNonDefaultOptions(t *testing.T) {
	model, _ := trainedModel(t, Options{
		Omega: 4, Delta: 3,
		Criterion:         core.Entropy,
		Match:             core.MatchSubsequence,
		LeafPolicy:        rules.MajorityAnomalyLeaves,
		MaxCompositionLen: 2,
	})
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Opts.Criterion != core.Entropy {
		t.Error("criterion lost")
	}
	if restored.Opts.Match != core.MatchSubsequence {
		t.Error("match mode lost")
	}
	if restored.Opts.LeafPolicy != rules.MajorityAnomalyLeaves {
		t.Error("leaf policy lost")
	}
	if restored.Opts.MaxCompositionLen != 2 {
		t.Error("composition cap lost")
	}
}

func TestLoadRejectsCorruptDocuments(t *testing.T) {
	cases := map[string]string{
		"junk":             "not json",
		"wrong version":    `{"version": 99, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}`,
		"no tree":          `{"version": 1, "options": {"omega": 5, "delta": 2}}`,
		"bad criterion":    `{"version": 1, "options": {"omega": 5, "delta": 2, "criterion": "x"}, "tree": {"normal": 1, "anomaly": 0}}`,
		"bad match":        `{"version": 1, "options": {"omega": 5, "delta": 2, "match": "x"}, "tree": {"normal": 1, "anomaly": 0}}`,
		"bad policy":       `{"version": 1, "options": {"omega": 5, "delta": 2, "leaf_policy": "x"}, "tree": {"normal": 1, "anomaly": 0}}`,
		"bad omega":        `{"version": 1, "options": {"omega": 0, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}`,
		"negative counts":  `{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": -1, "anomaly": 0}}`,
		"orphan child":     `{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0, "true": {"normal": 1, "anomaly": 0}}}`,
		"half split":       `{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0, "composition": [[0,1,1]], "true": {"normal": 1, "anomaly": 0}}}`,
		"label out of δ":   `{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0, "composition": [[0,9,9]], "true": {"normal": 1, "anomaly": 0}, "false": {"normal": 0, "anomaly": 1}}}`,
		"inconsistent lbl": `{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0, "composition": [[0,-1,1]], "true": {"normal": 1, "anomaly": 0}, "false": {"normal": 0, "anomaly": 1}}}`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLoadErrorsNameOffendingField: rejections carry the JSON path of
// the field that failed, so the model store's audit log and the CLI can
// say why a candidate was refused.
func TestLoadErrorsNameOffendingField(t *testing.T) {
	cases := map[string]struct {
		doc  string
		want string
	}{
		"criterion": {
			`{"version": 1, "options": {"omega": 5, "delta": 2, "criterion": "x"}, "tree": {"normal": 1, "anomaly": 0}}`,
			"options.criterion",
		},
		"match": {
			`{"version": 1, "options": {"omega": 5, "delta": 2, "match": "x"}, "tree": {"normal": 1, "anomaly": 0}}`,
			"options.match",
		},
		"leaf policy": {
			`{"version": 1, "options": {"omega": 5, "delta": 2, "leaf_policy": "x"}, "tree": {"normal": 1, "anomaly": 0}}`,
			"options.leaf_policy",
		},
		"implausible omega": {
			`{"version": 1, "options": {"omega": 9999999, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}`,
			"options.omega",
		},
		"implausible delta": {
			`{"version": 1, "options": {"omega": 5, "delta": 9999999}, "tree": {"normal": 1, "anomaly": 0}}`,
			"options.delta",
		},
		"delta past the int8 intervals": {
			`{"version": 1, "options": {"omega": 5, "delta": 128}, "tree": {"normal": 1, "anomaly": 0}}`,
			"options.delta",
		},
		"missing tree": {
			`{"version": 1, "options": {"omega": 5, "delta": 2}}`,
			"tree",
		},
		"root label": {
			`{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0, "composition": [[0,9,9],[0,1,1]], "true": {"normal": 1, "anomaly": 0}, "false": {"normal": 0, "anomaly": 1}}}`,
			"tree.composition[0]",
		},
		"nested negative counts": {
			`{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0, "composition": [[0,1,1]], "true": {"normal": 1, "anomaly": 0, "composition": [[0,1,1]], "true": {"normal": -1, "anomaly": 0}, "false": {"normal": 0, "anomaly": 1}}, "false": {"normal": 0, "anomaly": 1}}}`,
			"tree.true.true",
		},
		"nested half split": {
			`{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0, "composition": [[0,1,1]], "true": {"normal": 1, "anomaly": 0}, "false": {"normal": 0, "anomaly": 1, "composition": [[0,1,1]], "true": {"normal": 1, "anomaly": 0}}}}`,
			"tree.false",
		},
	}
	for name, tc := range cases {
		_, err := Load(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name field path %q", name, err, tc.want)
		}
	}
}

func TestLoadMinimalValidDocument(t *testing.T) {
	doc := `{"version": 1, "options": {"omega": 5, "delta": 2},
	         "tree": {"normal": 0, "anomaly": 3}}`
	m, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	// A single anomaly leaf classifies everything anomalous.
	obs := make([]Label, 5)
	if !m.Predict(obs) {
		t.Error("anomaly leaf should predict anomaly")
	}
}

func TestSaveLoadStable(t *testing.T) {
	// Saving a loaded model reproduces the same bytes (stable format).
	model, _ := trainedModel(t, Options{Omega: 5, Delta: 2})
	var first bytes.Buffer
	if err := model.Save(&first); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := restored.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("save/load/save not stable")
	}
}

// Property: for randomly shaped trained models, save/load preserves
// predictions on random windows.
func TestSaveLoadPropertyRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		n := 150 + rng.Intn(200)
		values := make([]float64, n)
		anoms := make([]bool, n)
		for i := range values {
			values[i] = 50 + 10*math.Sin(float64(i)/float64(3+rng.Intn(6))) + rng.Float64()
		}
		for k := 0; k < 2+rng.Intn(3); k++ {
			at := 5 + rng.Intn(n-10)
			values[at] = 200 + 50*rng.Float64()
			anoms[at] = true
		}
		opts := Options{Omega: 3 + rng.Intn(6), Delta: 1 + rng.Intn(5)}
		model, err := Fit([]*Series{NewLabeledSeries("p", values, anoms)}, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Load(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		alphabet := model.pcfg.Alphabet()
		for w := 0; w < 50; w++ {
			window := make([]Label, opts.Omega)
			for i := range window {
				window[i] = alphabet[rng.Intn(len(alphabet))]
			}
			if model.Predict(window) != restored.Predict(window) {
				t.Fatalf("trial %d: prediction diverged after reload", trial)
			}
		}
	}
}

func trainedPyramid(t *testing.T) (*PyramidModel, *Series) {
	t.Helper()
	train := plateauSeries("train", 480, []int{50, 150, 250}, 350, 40, 7)
	pm, err := FitPyramid([]*Series{train}, Options{Omega: 5, Delta: 2}, PyramidConfig{
		Factors:    []int{1, 4},
		Aggregator: "max",
		Fusion:     Fusion{Policy: FuseAny},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pm, train
}

func TestPyramidSaveLoadRoundTrip(t *testing.T) {
	pm, train := trainedPyramid(t)
	var buf bytes.Buffer
	if err := pm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadPyramid(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Config, pm.Config) {
		t.Errorf("config diverged: %+v vs %+v", restored.Config, pm.Config)
	}
	// Epsilon persists in its defaulted (effective) form, like plain
	// model round-trips.
	if restored.Opts.Omega != pm.Opts.Omega || restored.Opts.Delta != pm.Opts.Delta ||
		restored.Opts.Epsilon != pm.ScaleModel(0).pcfg.Epsilon {
		t.Errorf("options diverged: %+v vs %+v", restored.Opts, pm.Opts)
	}
	if restored.RuleText() != pm.RuleText() {
		t.Error("rule text diverged after reload")
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
		t.Error("detections diverged after reload")
	}
	if restored.TrainingAnomalyRate() != pm.TrainingAnomalyRate() {
		t.Error("training anomaly rate diverged after reload")
	}
}

func TestLoadAnyDispatchesOnKind(t *testing.T) {
	model, _ := trainedModel(t, Options{Omega: 5, Delta: 2})
	pm, _ := trainedPyramid(t)

	var mbuf bytes.Buffer
	if err := model.Save(&mbuf); err != nil {
		t.Fatal(err)
	}
	art, err := LoadAny(bytes.NewReader(mbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info := art.Info(); info.Kind != KindModel || info.Scales != nil {
		t.Errorf("model artifact info = %+v", info)
	}
	if _, ok := art.(*Model); !ok {
		t.Errorf("LoadAny returned %T for a model document", art)
	}

	var pbuf bytes.Buffer
	if err := pm.Save(&pbuf); err != nil {
		t.Fatal(err)
	}
	art, err = LoadAny(bytes.NewReader(pbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	info := art.Info()
	if info.Kind != KindPyramid || !reflect.DeepEqual(info.Scales, []int{1, 4}) {
		t.Errorf("pyramid artifact info = %+v", info)
	}
	if _, ok := art.(*PyramidModel); !ok {
		t.Errorf("LoadAny returned %T for a pyramid document", art)
	}
	if _, err := LoadAny(strings.NewReader(`{"kind":"teapot"}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	// A pyramid document fed to the plain model loader fails cleanly.
	if _, err := Load(bytes.NewReader(pbuf.Bytes())); err == nil {
		t.Error("plain Load accepted a pyramid document")
	}
}

func TestLoadPyramidRejectsBadDocuments(t *testing.T) {
	pm, _ := trainedPyramid(t)
	var buf bytes.Buffer
	if err := pm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	cases := []struct {
		name, doc, wantErr string
	}{
		{"bad version", `{"version":9,"kind":"pyramid","fusion":{"policy":"any"},"scales":[]}`, "version"},
		{"bad kind", `{"version":1,"kind":"model","fusion":{"policy":"any"},"scales":[]}`, "kind"},
		{"bad policy", `{"version":1,"kind":"pyramid","fusion":{"policy":"psychic"},"scales":[{"factor":1,"model":{"version":1,"options":{"omega":3,"delta":1},"tree":{"normal":1,"anomaly":0}}}]}`, "fusion.policy"},
		{"no scales", `{"version":1,"kind":"pyramid","fusion":{"policy":"any"},"scales":[]}`, "scales"},
		{"missing base factor", `{"version":1,"kind":"pyramid","fusion":{"policy":"any"},"scales":[{"factor":2,"model":{"version":1,"options":{"omega":3,"delta":1},"tree":{"normal":1,"anomaly":0}}}]}`, "scales"},
		{"broken scale model", `{"version":1,"kind":"pyramid","fusion":{"policy":"any"},"scales":[{"factor":1,"model":{"version":1,"options":{"omega":3,"delta":1}}}]}`, "scales[0].model.tree"},
		{"mixed omega", `{"version":1,"kind":"pyramid","fusion":{"policy":"any"},"scales":[` +
			`{"factor":1,"model":{"version":1,"options":{"omega":3,"delta":1},"tree":{"normal":1,"anomaly":0}}},` +
			`{"factor":2,"model":{"version":1,"options":{"omega":4,"delta":1},"tree":{"normal":1,"anomaly":0}}}]}`, "scales[1].model.options"},
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
	// Sanity: the known-good document still loads.
	if _, err := LoadPyramid(strings.NewReader(good)); err != nil {
		t.Errorf("good document rejected: %v", err)
	}
}
