package cdt

// Artifact is the deployable-model surface: the operations the serving
// and storage layers (internal/modelstore, internal/server, cmd/cdt)
// need without knowing whether they hold a single-scale Model or a
// resolution PyramidModel. Both implement it; LoadAny dispatches on the
// persisted document's kind.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
)

// ArtifactKind names a deployable artifact flavor.
const (
	// KindModel is a single-scale CDT (the paper's model).
	KindModel = "model"
	// KindPyramid is a resolution pyramid.
	KindPyramid = "pyramid"
)

// ArtifactInfo is the flat summary registries and CLIs list.
type ArtifactInfo struct {
	// Kind is KindModel or KindPyramid.
	Kind string
	// Omega and Delta are the (shared) training hyper-parameters.
	Omega, Delta int
	// NumRules is the total rule-predicate count (summed over scales).
	NumRules int
	// Scales holds the pyramid's downsample factors; nil for plain
	// models.
	Scales []int
	// ScaleRules counts the rule predicates per scale, aligned with
	// Scales; nil for plain models. The serving layer's per-rule
	// attribution uses it to assign each (scale, rule-index) pair a
	// stable flat metric label without rendering rule text.
	ScaleRules []int
	// Fusion renders a pyramid's fusion policy with its parameters
	// ("any", "2-of-n", "weighted(>=0.8)"); empty for plain models.
	Fusion string
	// FusionWeights holds a weighted pyramid's learned (or hand-set)
	// per-scale weights, aligned with Scales; nil otherwise.
	FusionWeights []float64
}

// RangeStats is the lean scoring result shadow evaluation consumes:
// detection point ranges plus, for pyramids, per-scale fire counts.
// Candidate scoring is pure overhead while a shadow is active, so this
// surface carries only what range comparison reads — no rule-text
// rendering, no per-window explanation assembly.
type RangeStats struct {
	// Ranges holds one [start, end] point range per detection,
	// ascending — exactly the ranges DetectExplained reports.
	Ranges [][2]int
	// ScaleFired and ScaleWindows count, per pyramid scale (aligned
	// with ArtifactInfo.Scales), the windows that fired and the windows
	// swept at that scale. Nil for plain models.
	ScaleFired, ScaleWindows []int
}

// StreamHandle is the online-detector surface shared by Stream and
// PyramidStream: the session layer drives either through it.
type StreamHandle interface {
	// Push consumes the next reading and returns the detections that
	// became decidable with it.
	Push(value float64) []Detection
	// Reset starts a new run, keeping model and scale.
	Reset()
	// Points returns the readings consumed in the current run.
	Points() int
	// Ready reports whether full windows are being evaluated.
	Ready() bool
}

// Artifact is a deployable trained detector.
type Artifact interface {
	// Info summarizes the artifact for listings.
	Info() ArtifactInfo
	// NumRules is the total rule-predicate count.
	NumRules() int
	// RuleText renders the rules as IF-THEN lines.
	RuleText() string
	// TrainingAnomalyRate is the training-time anomalous-window share —
	// the drift-detection baseline.
	TrainingAnomalyRate() float64
	// Save writes the artifact's versioned JSON document.
	Save(w io.Writer) error
	// DetectExplained scores one series, returning fired windows with
	// their explanations (and, for pyramids, type tags and per-scale
	// breakdowns). ctx carries request-scoped instrumentation — trace
	// spans (internal/trace) and the per-scale sweep observer — through
	// the scoring hot path; context.Background() disables both.
	DetectExplained(ctx context.Context, s *Series) ([]WindowDetection, error)
	// ScoreRanges scores one series for range-level comparison: the
	// same detection ranges DetectExplained reports, without the
	// explanation rendering. Shadow evaluation's scoring path. ctx as
	// in DetectExplained.
	ScoreRanges(ctx context.Context, s *Series) (RangeStats, error)
	// OpenStream starts an online detector under the given value scale.
	OpenStream(scale Scale) (StreamHandle, error)
}

// Info summarizes the model.
func (m *Model) Info() ArtifactInfo {
	return ArtifactInfo{
		Kind:     KindModel,
		Omega:    m.Opts.Omega,
		Delta:    m.Opts.Delta,
		NumRules: m.NumRules(),
	}
}

// OpenStream starts an online detector (NewStream under the Artifact
// surface).
func (m *Model) OpenStream(scale Scale) (StreamHandle, error) {
	return m.NewStream(scale)
}

// Info summarizes the pyramid.
func (pm *PyramidModel) Info() ArtifactInfo {
	var weights []float64
	if len(pm.Config.Fusion.Weights) > 0 {
		weights = make([]float64, len(pm.Config.Fusion.Weights))
		copy(weights, pm.Config.Fusion.Weights)
	}
	scaleRules := make([]int, len(pm.models))
	for i, m := range pm.models {
		scaleRules[i] = m.NumRules()
	}
	return ArtifactInfo{
		Kind:          KindPyramid,
		Omega:         pm.Opts.Omega,
		Delta:         pm.Opts.Delta,
		NumRules:      pm.NumRules(),
		Scales:        pm.Scales(),
		ScaleRules:    scaleRules,
		Fusion:        pm.Config.Fusion.String(),
		FusionWeights: weights,
	}
}

// OpenStream starts an online pyramid detector (NewStream under the
// Artifact surface).
func (pm *PyramidModel) OpenStream(scale Scale) (StreamHandle, error) {
	return pm.NewStream(scale)
}

// LoadAny reads a saved artifact of either kind: it probes the
// document's "kind" discriminator and dispatches to Load (absent — the
// plain model format predates pyramids) or LoadPyramid ("pyramid").
func LoadAny(r io.Reader) (Artifact, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cdt: reading artifact: %w", err)
	}
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("cdt: decoding artifact: %w", err)
	}
	switch probe.Kind {
	case artifactKindPyramid:
		return LoadPyramid(bytes.NewReader(raw))
	case KindModel, "":
		// Plain model documents either carry an explicit "model" kind or
		// predate the discriminator entirely.
		return Load(bytes.NewReader(raw))
	default:
		return nil, fmt.Errorf("cdt: kind: unknown artifact kind %q", probe.Kind)
	}
}
