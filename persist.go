package cdt

// Model persistence: a trained CDT serializes to a stable, versioned
// JSON document (tree structure, options, and pattern configuration), so
// rules learned once can be deployed without retraining.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"cdt/internal/core"
	"cdt/internal/pattern"
	"cdt/internal/rules"
)

// persistVersion identifies the serialization format.
const persistVersion = 1

// modelDoc is the on-disk form of a Model.
type modelDoc struct {
	Version int        `json:"version"`
	Options optionsDoc `json:"options"`
	Tree    *nodeDoc   `json:"tree"`
}

// optionsDoc mirrors Options with explicit enum encodings.
type optionsDoc struct {
	Omega             int     `json:"omega"`
	Delta             int     `json:"delta"`
	Epsilon           float64 `json:"epsilon"`
	MaxCompositionLen int     `json:"max_composition_len,omitempty"`
	Criterion         string  `json:"criterion"`
	Match             string  `json:"match"`
	LeafPolicy        string  `json:"leaf_policy"`
}

// nodeDoc is one serialized tree node.
type nodeDoc struct {
	// Composition holds label triples [variation, alpha, beta]; nil for
	// leaves.
	Composition [][3]int8 `json:"composition,omitempty"`
	True        *nodeDoc  `json:"true,omitempty"`
	False       *nodeDoc  `json:"false,omitempty"`
	Normal      int       `json:"normal"`
	Anomaly     int       `json:"anomaly"`
}

// doc builds the model's on-disk form — shared by Save and the pyramid
// artifact, which embeds one model doc per scale.
func (m *Model) doc() modelDoc {
	return modelDoc{
		Version: persistVersion,
		Options: optionsDoc{
			Omega:             m.Opts.Omega,
			Delta:             m.Opts.Delta,
			Epsilon:           m.pcfg.Epsilon,
			MaxCompositionLen: m.Opts.MaxCompositionLen,
			Criterion:         m.Opts.Criterion.String(),
			Match:             m.Opts.Match.String(),
			LeafPolicy:        m.Opts.LeafPolicy.String(),
		},
		Tree: encodeNode(m.tree.Root, 0),
	}
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.doc())
}

func encodeNode(n *core.Node, depth int) *nodeDoc {
	if n == nil {
		return nil
	}
	doc := &nodeDoc{Normal: n.Counts.Normal, Anomaly: n.Counts.Anomaly}
	if !n.Leaf() {
		doc.Composition = make([][3]int8, n.Composition.Len())
		for i, l := range n.Composition.Labels {
			doc.Composition[i] = [3]int8{int8(l.Var), int8(l.Alpha), int8(l.Beta)}
		}
		doc.True = encodeNode(n.ChildTrue, depth+1)
		doc.False = encodeNode(n.ChildFalse, depth+1)
	}
	return doc
}

// Load reads a model saved by Save. The restored model predicts and
// detects identically to the original.
func Load(r io.Reader) (*Model, error) {
	var doc modelDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("cdt: decoding model: %w", err)
	}
	return modelFromDoc(doc)
}

// modelFromDoc rebuilds a Model from its decoded on-disk form — shared
// by Load and LoadPyramid. Rejections name the offending field by its
// JSON path relative to the model doc.
func modelFromDoc(doc modelDoc) (*Model, error) {
	if doc.Version != persistVersion {
		return nil, fmt.Errorf("cdt: model version %d, this build reads %d", doc.Version, persistVersion)
	}
	opts := Options{
		Omega:             doc.Options.Omega,
		Delta:             doc.Options.Delta,
		Epsilon:           doc.Options.Epsilon,
		MaxCompositionLen: doc.Options.MaxCompositionLen,
	}
	// Rejections name the offending field by its JSON path (e.g.
	// "options.criterion", "tree.true.composition[1]"), so the model
	// store's audit log and the CLI can say why a candidate was refused,
	// not just that it was.
	switch doc.Options.Criterion {
	case "", "gini":
		opts.Criterion = core.Gini
	case "entropy":
		opts.Criterion = core.Entropy
	default:
		return nil, fmt.Errorf("cdt: options.criterion: unknown criterion %q", doc.Options.Criterion)
	}
	switch doc.Options.Match {
	case "", "contiguous":
		opts.Match = core.MatchContiguous
	case "subsequence":
		opts.Match = core.MatchSubsequence
	default:
		return nil, fmt.Errorf("cdt: options.match: unknown match mode %q", doc.Options.Match)
	}
	switch doc.Options.LeafPolicy {
	case "", "pure-anomaly":
		opts.LeafPolicy = rules.PureAnomalyLeaves
	case "majority-anomaly":
		opts.LeafPolicy = rules.MajorityAnomalyLeaves
	default:
		return nil, fmt.Errorf("cdt: options.leaf_policy: unknown leaf policy %q", doc.Options.LeafPolicy)
	}
	// δ past the int8 intervals' range would wrap every label; name the
	// field before Validate rejects it in general terms.
	if opts.Delta > pattern.MaxDelta {
		return nil, fmt.Errorf("cdt: options.delta: implausible delta %d (max %d)", opts.Delta, pattern.MaxDelta)
	}
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("cdt: options: %s", strings.TrimPrefix(err.Error(), "cdt: "))
	}
	// Bound ω to a plausible magnitude: models are loaded from disk at
	// serving time, and an adversarial or corrupted file must fail
	// cleanly instead of driving huge window allocations downstream.
	const maxOmega = 1 << 20
	if opts.Omega > maxOmega {
		return nil, fmt.Errorf("cdt: options.omega: implausible omega %d (max %d)", opts.Omega, maxOmega)
	}
	if doc.Tree == nil {
		return nil, fmt.Errorf("cdt: tree: model has no tree")
	}
	root, err := decodeNode(doc.Tree, "tree", 0, opts.Delta)
	if err != nil {
		return nil, err
	}
	pcfg := opts.patternConfig()
	m := &Model{
		Opts: opts,
		tree: &core.Tree{Root: root, Omega: opts.Omega, Opts: opts.coreOptions()},
		pcfg: pcfg,
	}
	m.raw = rules.FromTree(m.tree, opts.LeafPolicy)
	m.finalizeRules()
	return m, nil
}

// decodeNode rebuilds one tree node. path is the node's JSON path from
// the document root ("tree", "tree.true", ...); every rejection carries
// it so a refused artifact names the exact offending field.
func decodeNode(doc *nodeDoc, path string, depth, delta int) (*core.Node, error) {
	n := &core.Node{
		Counts: core.ClassCounts{Normal: doc.Normal, Anomaly: doc.Anomaly},
		Depth:  depth,
	}
	if doc.Normal < 0 || doc.Anomaly < 0 {
		return nil, fmt.Errorf("cdt: %s: negative class counts normal=%d anomaly=%d", path, doc.Normal, doc.Anomaly)
	}
	if len(doc.Composition) == 0 {
		if doc.True != nil || doc.False != nil {
			return nil, fmt.Errorf("cdt: %s: node has children but no composition", path)
		}
		return n, nil
	}
	if doc.True == nil || doc.False == nil {
		return nil, fmt.Errorf("cdt: %s: split node missing a child", path)
	}
	pcfg := pattern.Config{Delta: delta}
	comp := core.Composition{Labels: make([]pattern.Label, len(doc.Composition))}
	for i, triple := range doc.Composition {
		l := pattern.Label{
			Var:   pattern.Variation(triple[0]),
			Alpha: pattern.Interval(triple[1]),
			Beta:  pattern.Interval(triple[2]),
		}
		if !pcfg.Valid(l) {
			return nil, fmt.Errorf("cdt: %s.composition[%d]: invalid label %v for delta %d", path, i, l, delta)
		}
		comp.Labels[i] = l
	}
	n.Composition = &comp
	var err error
	if n.ChildTrue, err = decodeNode(doc.True, path+".true", depth+1, delta); err != nil {
		return nil, err
	}
	if n.ChildFalse, err = decodeNode(doc.False, path+".false", depth+1, delta); err != nil {
		return nil, err
	}
	return n, nil
}

// pyramidPersistVersion identifies the pyramid serialization format.
const pyramidPersistVersion = 1

// artifactKindPyramid is the document discriminator LoadAny probes for.
// Plain model documents carry no kind field (the format predates
// pyramids and stays byte-stable).
const artifactKindPyramid = "pyramid"

// pyramidDoc is the on-disk form of a PyramidModel: the discriminating
// kind, the fusion policy, and one embedded model doc per scale.
type pyramidDoc struct {
	Version    int       `json:"version"`
	Kind       string    `json:"kind"`
	Aggregator string    `json:"aggregator,omitempty"`
	Fusion     fusionDoc `json:"fusion"`
	// Dim is the scored dimension of a multivariate feed; omitted for
	// the univariate default, so pre-composition documents are
	// byte-stable.
	Dim    int        `json:"dim,omitempty"`
	Scales []scaleDoc `json:"scales"`
}

// scaleDoc is one serialized pyramid scale.
type scaleDoc struct {
	Factor int      `json:"factor"`
	Model  modelDoc `json:"model"`
}

// fusionDoc mirrors Fusion with an explicit policy encoding.
type fusionDoc struct {
	Policy    string    `json:"policy"`
	K         int       `json:"k,omitempty"`
	Weights   []float64 `json:"weights,omitempty"`
	Threshold float64   `json:"threshold,omitempty"`
}

// Save writes the pyramid as JSON. It refuses a configuration
// LoadPyramid would refuse, such as a fusion policy assigned after
// fitting that Validate rejects.
func (pm *PyramidModel) Save(w io.Writer) error {
	if err := pm.Config.Validate(); err != nil {
		return err
	}
	doc := pyramidDoc{
		Version:    pyramidPersistVersion,
		Kind:       artifactKindPyramid,
		Aggregator: canonicalAggregator(pm.Config.Aggregator),
		Fusion: fusionDoc{
			Policy:    pm.Config.Fusion.Policy.String(),
			K:         pm.Config.Fusion.K,
			Weights:   pm.Config.Fusion.Weights,
			Threshold: pm.Config.Fusion.Threshold,
		},
		Dim: pm.Config.Dim,
	}
	for i, m := range pm.models {
		doc.Scales = append(doc.Scales, scaleDoc{
			Factor: pm.Config.Factors[i],
			Model:  m.doc(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// LoadPyramid reads a pyramid saved by PyramidModel.Save. The restored
// pyramid detects and types identically to the original. Like Load,
// rejections name the offending JSON field.
func LoadPyramid(r io.Reader) (*PyramidModel, error) {
	var doc pyramidDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("cdt: decoding pyramid: %w", err)
	}
	return pyramidFromDoc(doc)
}

// pyramidFromDoc rebuilds a PyramidModel from its decoded on-disk form.
func pyramidFromDoc(doc pyramidDoc) (*PyramidModel, error) {
	if doc.Version != pyramidPersistVersion {
		return nil, fmt.Errorf("cdt: pyramid version %d, this build reads %d", doc.Version, pyramidPersistVersion)
	}
	if doc.Kind != artifactKindPyramid {
		return nil, fmt.Errorf("cdt: kind: %q, want %q", doc.Kind, artifactKindPyramid)
	}
	policy, err := ParseFusionPolicy(doc.Fusion.Policy)
	if err != nil {
		return nil, fmt.Errorf("cdt: fusion.policy: %s", strings.TrimPrefix(err.Error(), "cdt: "))
	}
	cfg := PyramidConfig{
		Aggregator: doc.Aggregator,
		Fusion: Fusion{
			Policy:    policy,
			K:         doc.Fusion.K,
			Weights:   doc.Fusion.Weights,
			Threshold: doc.Fusion.Threshold,
		},
		Dim: doc.Dim,
	}
	for _, sd := range doc.Scales {
		cfg.Factors = append(cfg.Factors, sd.Factor)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("cdt: scales: %s", strings.TrimPrefix(err.Error(), "cdt: "))
	}
	pm := &PyramidModel{Config: cfg}
	for i, sd := range doc.Scales {
		m, err := modelFromDoc(sd.Model)
		if err != nil {
			return nil, fmt.Errorf("cdt: scales[%d].model.%s", i, strings.TrimPrefix(err.Error(), "cdt: "))
		}
		if i == 0 {
			pm.Opts = m.Opts
		} else if m.Opts.Omega != pm.Opts.Omega || m.Opts.Delta != pm.Opts.Delta {
			// Detection geometry projects every scale with the shared ω, so
			// a mixed-ω document cannot be scored consistently.
			return nil, fmt.Errorf("cdt: scales[%d].model.options: (omega,delta)=(%d,%d) differs from scale 0's (%d,%d)",
				i, m.Opts.Omega, m.Opts.Delta, pm.Opts.Omega, pm.Opts.Delta)
		}
		pm.models = append(pm.models, m)
	}
	return pm, nil
}
