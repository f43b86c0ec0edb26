package cdt

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"cdt/internal/core"
	"cdt/internal/engine"
	"cdt/internal/evalmetrics"
	"cdt/internal/pattern"
	"cdt/internal/quality"
	"cdt/internal/rules"
	"cdt/internal/trace"
)

// Model is a trained CDT: the tree, the simplified rule set extracted
// from it, and the configuration needed to preprocess new data.
type Model struct {
	// Opts is the training configuration.
	Opts Options

	tree *core.Tree
	rule rules.Rule
	raw  rules.Rule
	pcfg pattern.Config

	// eng is the rule set compiled into one immutable matcher
	// (internal/engine); every detection surface — DetectWindows,
	// DetectExplained, EvaluateCorpus, Audit, Stream, and the serving
	// layer — evaluates through it. Compiled once in
	// finalizeRules, read-only afterwards.
	eng *engine.Engine

	// predTexts and predDescs cache the per-predicate renderings of
	// rule, indexed like rule.Predicates (see finalizeRules).
	predTexts []string
	predDescs []string

	// predPeaks caches, per predicate, whether any positive composition
	// contains a peak label (PP/PN) — the rule-shape bit the pyramid's
	// anomaly-type classifier reads (see pyramid.go).
	predPeaks []bool
}

// Fit trains a CDT on one or more labeled series: each series is
// normalized to [0,1] (if not already), labeled with the δ pattern
// alphabet, cut into ω-windows, and the pooled windows grow the tree
// (Algorithm 1); rules are then extracted and Boolean-simplified (§3.4).
// At least one series must contain an anomaly, otherwise there is
// nothing to learn rules for.
//
// Fit is a thin wrapper over the Corpus pipeline; callers training
// repeatedly on the same series (hyper-parameter sweeps, cross-validation)
// should build one Corpus and use Corpus.Fit so the preprocessing stages
// are shared across fits.
func Fit(train []*Series, opts Options) (*Model, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("cdt: no training series")
	}
	c, err := NewCorpus(train)
	if err != nil {
		return nil, err
	}
	return c.Fit(opts)
}

// Rule returns the simplified rule set.
func (m *Model) Rule() Rule { return m.rule }

// RawRule returns the rule set as extracted from the tree, before
// Boolean simplification (useful for measuring what simplification
// saves).
func (m *Model) RawRule() Rule { return m.raw }

// NumRules returns the number of rule predicates (the Figure 3 metric).
func (m *Model) NumRules() int { return m.rule.Count() }

// RuleText renders the rules as IF-THEN lines with δ-aware label names.
func (m *Model) RuleText() string { return m.rule.Format(m.pcfg) }

// Explain renders the rules with ASCII shape sketches and plain-language
// descriptions — the presentation of Table 5.
func (m *Model) Explain() string {
	var b strings.Builder
	b.WriteString(rules.Explain(m.rule, m.pcfg))
	for _, p := range m.rule.Predicates {
		for _, c := range p.PositiveCompositions() {
			fmt.Fprintf(&b, "reading of %s: %s\n", c.Format(m.pcfg), rules.Describe(c))
		}
	}
	return b.String()
}

// TreeText renders the underlying decision tree (Figure 2's view).
func (m *Model) TreeText() string { return m.tree.Render(m.pcfg) }

// TreeStats summarizes the tree's shape.
func (m *Model) TreeStats() core.Stats { return m.tree.Stats() }

// TrainingAnomalyRate returns the share of anomalous windows in the
// model's training observations (the class distribution at the tree
// root). It survives Save/Load, so a served model carries its own
// baseline fire-rate expectation — the reference drift detection
// compares live traffic against.
func (m *Model) TrainingAnomalyRate() float64 {
	c := m.tree.Root.Counts
	total := c.Normal + c.Anomaly
	if total == 0 {
		return 0
	}
	return float64(c.Anomaly) / float64(total)
}

// detectMarks labels a series and sweeps the compiled engine over it in
// one pass, returning per-window match marks — the shared back end of
// every batch detection surface.
func (m *Model) detectMarks(ctx context.Context, s *Series) (*engine.Marks, error) {
	min, max, err := s.MinMax()
	if err != nil {
		return nil, fmt.Errorf("cdt: series %q: %w", s.Name, err)
	}
	return m.sweepValues(ctx, s.Name, s.Values, min, max)
}

// sweepValues is detectMarks past its MinMax scan: it labels readings
// bounded by min and max as labelValues does and sweeps the engine over
// the labels. The labels go into a pooled buffer: they are garbage once
// the marks are out. A sampled ctx (internal/trace) gets an
// "engine_sweep" span; the unsampled path pays one context lookup.
func (m *Model) sweepValues(ctx context.Context, name string, values []float64, min, max float64) (*engine.Marks, error) {
	_, span := trace.StartSpan(ctx, "engine_sweep")
	bp := labelBufs.Get().(*[]pattern.Label)
	labels, err := labelValues((*bp)[:0], name, values, min, max, m.pcfg, m.Opts.Omega)
	var marks *engine.Marks
	if err == nil {
		marks = m.eng.Sweep(labels)
	}
	if cap(labels) <= maxPooledLabels {
		*bp = labels[:0]
		labelBufs.Put(bp)
	}
	if err != nil {
		span.End()
		return nil, err
	}
	if span != nil {
		span.SetAttr("windows", strconv.Itoa(marks.NumWindows()))
	}
	span.End()
	return marks, nil
}

// labelBufs pools detectMarks' label buffers. maxPooledLabels bounds
// what goes back, so one huge series does not pin its buffer for good.
var labelBufs = sync.Pool{New: func() any { return new([]pattern.Label) }}

const maxPooledLabels = 1 << 20

// DetectWindows runs the rule over a series and returns one flag per
// sliding window (window i covers points [i+1, i+ω] of the series).
func (m *Model) DetectWindows(s *Series) ([]bool, error) {
	marks, err := m.detectMarks(context.Background(), s)
	if err != nil {
		return nil, err
	}
	flags := make([]bool, marks.NumWindows())
	for w := range flags {
		flags[w] = marks.Fired(w)
	}
	m.eng.Release(marks)
	return flags, nil
}

// PointFlags projects window detections to per-point anomaly flags: a
// point is flagged when at least one window covering it fires. The
// result has the same length as the series.
func (m *Model) PointFlags(s *Series) ([]bool, error) {
	windows, err := m.DetectWindows(s)
	if err != nil {
		return nil, err
	}
	flags := make([]bool, s.Len())
	for wi, fired := range windows {
		if !fired {
			continue
		}
		// Window wi covers points wi+1 .. wi+ω.
		for p := wi + 1; p <= wi+m.Opts.Omega && p < len(flags); p++ {
			flags[p] = true
		}
	}
	return flags, nil
}

// Report is a full evaluation of the model on labeled data: detection
// quality (F1) plus the paper's rule-quality measures.
type Report struct {
	// Confusion is the window-level confusion matrix.
	Confusion evalmetrics.Confusion
	// F1 is the window-level F1 score.
	F1 float64
	// Q is the rule quality Q(R) (Equation 3).
	Q float64
	// FH is the objective F(h) = F1 · Q(R) (Equation 5).
	FH float64
	// NumRules is the rule-predicate count.
	NumRules int
}

// Evaluate measures the model on labeled series, pooling their windows
// (the protocol of §4.1: window-level classification scored by F1, rule
// quality by Equation 3). For repeated evaluations over the same series
// (e.g. scoring many candidate models against one validation split),
// build a Corpus once and use EvaluateCorpus.
func (m *Model) Evaluate(eval []*Series) (Report, error) {
	if len(eval) == 0 {
		return Report{}, fmt.Errorf("cdt: no evaluation series")
	}
	c, err := NewCorpus(eval)
	if err != nil {
		return Report{}, err
	}
	return m.EvaluateCorpus(c)
}

// EvaluateCorpus is Evaluate against a pre-built Corpus: the evaluation
// windows for this model's (ω, δ) are pulled from the corpus cache, so
// scoring many models that share hyper-parameter candidates against one
// validation corpus re-labels and re-windows nothing.
func (m *Model) EvaluateCorpus(c *Corpus) (Report, error) {
	qrep, err := m.evaluate(c)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Confusion: qrep.Confusion,
		F1:        qrep.F1(),
		Q:         qrep.Q,
		FH:        qrep.Objective(),
		NumRules:  m.rule.Count(),
	}, nil
}

// evaluate scores the rule on the corpus's ω-windows: one sweep over
// the corpus's cached per-series labelings, whose windows, series by
// series, are exactly Corpus.Observations' pool in order, so mark i
// belongs to observation i.
func (m *Model) evaluate(c *Corpus) (quality.Report, error) {
	pooled, err := c.Observations(m.Opts)
	if err != nil {
		return quality.Report{}, err
	}
	perSeries, err := c.labelsFor(m.pcfg)
	if err != nil {
		return quality.Report{}, err
	}
	marks := m.eng.Sweep(perSeries...)
	return quality.Evaluate(m.rule, pooled, marks, m.Opts.Omega, m.pcfg.AlphabetSize()), nil
}

// Predict classifies one window of labels directly (for callers managing
// their own labeling).
func (m *Model) Predict(labels []Label) bool {
	return m.tree.Predict(labels) == core.Anomaly
}

// GeneralRule is a magnitude-generalized rule set (see Generalize).
type GeneralRule = rules.GeneralRule

// PruneRedundant returns a copy of the rule set without predicates that
// contribute no true positive on the reference series — the paper's
// "eliminate redundant rules" improvement. Evaluation is ordered: a
// predicate's true positives are the anomalous windows it matches
// first, so a predicate fully shadowed by earlier ones is removed. The
// reference should be labeled data not used for training (e.g. the
// validation split).
func (m *Model) PruneRedundant(reference []*Series) (Rule, error) {
	c, err := referenceCorpus(reference)
	if err != nil {
		return Rule{}, err
	}
	rep, err := m.evaluate(c)
	if err != nil {
		return Rule{}, err
	}
	out := Rule{Mode: m.rule.Mode}
	for i, p := range m.rule.Predicates {
		if rep.PredicateSupports[i] > 0 {
			out.Predicates = append(out.Predicates, p)
		}
	}
	return out, nil
}

// Generalize widens the magnitude intervals of the learned rules —
// PP[L,H] becomes PP[+,+] ("any positive peak") — keeping each widening
// only when the rule's F1 on the reference series does not degrade; the
// paper's "combine rules by a generalization" improvement. Generalized
// rules transfer better across magnitude regimes and read more
// naturally. The reference should be labeled data not used for training.
func (m *Model) Generalize(reference []*Series) (GeneralRule, error) {
	c, err := referenceCorpus(reference)
	if err != nil {
		return GeneralRule{}, err
	}
	obs, err := c.Observations(m.Opts)
	if err != nil {
		return GeneralRule{}, err
	}
	return rules.Generalize(m.rule, obs, m.Opts.Delta), nil
}

// GeneralRuleText renders a generalized rule set with this model's
// δ-aware label names.
func (m *Model) GeneralRuleText(g GeneralRule) string { return g.Format(m.pcfg) }

// referenceCorpus wraps reference or evaluation series in a throwaway
// corpus, so every trainer-side consumer shares one pipeline
// implementation.
func referenceCorpus(series []*Series) (*Corpus, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("cdt: no reference series")
	}
	return NewCorpus(series)
}

// RuleStat summarizes one rule predicate's behaviour on an evaluation
// set — the audit view an analyst reads before trusting a rule.
type RuleStat struct {
	// Index is the 1-based rule number matching RuleText's numbering.
	Index int
	// Text is the rendered predicate.
	Text string
	// Support is the number of anomalous windows the rule correctly
	// claimed (as first matcher).
	Support int
	// FalseAlarms is the number of normal windows it flagged.
	FalseAlarms int
	// Interpretability is M(I_Rs), Equation 2.
	Interpretability float64
}

// Precision is Support/(Support+FalseAlarms), or 0 when the rule never
// fired.
func (r RuleStat) Precision() float64 {
	if r.Support+r.FalseAlarms == 0 {
		return 0
	}
	return float64(r.Support) / float64(r.Support+r.FalseAlarms)
}

// Audit evaluates every rule predicate on labeled series and returns
// per-rule support, false alarms, and interpretability, in rule order.
func (m *Model) Audit(eval []*Series) ([]RuleStat, error) {
	c, err := referenceCorpus(eval)
	if err != nil {
		return nil, err
	}
	rep, err := m.evaluate(c)
	if err != nil {
		return nil, err
	}
	stats := make([]RuleStat, len(m.rule.Predicates))
	for i, p := range m.rule.Predicates {
		stats[i] = RuleStat{
			Index:            i + 1,
			Text:             p.Format(m.pcfg),
			Support:          rep.PredicateSupports[i],
			FalseAlarms:      rep.PredicateFalsePositives[i],
			Interpretability: rep.PredicateQualities[i],
		}
	}
	return stats, nil
}

// TreeDOT renders the decision tree as Graphviz source for
// publication-quality diagrams (render with `dot -Tpng`).
func (m *Model) TreeDOT() string { return m.tree.DOT(m.pcfg) }
