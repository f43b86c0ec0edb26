package cdt

// Explained detection: the paper's whole point is that detections come
// with human-readable rules attached (§3.4, Table 5), so the library can
// report not just *where* a window fired but *which* rule predicates
// fired and what shape they describe. The serving subsystem
// (internal/server) returns these alongside every detection.

import (
	"context"
	"strconv"
	"strings"

	"cdt/internal/engine"
	"cdt/internal/pattern"
	"cdt/internal/rules"
	"cdt/internal/trace"
)

// FiredPredicate identifies one rule predicate that matched a window,
// rendered for humans.
type FiredPredicate struct {
	// Index is the 1-based rule number matching RuleText's numbering.
	Index int
	// Text is the rendered predicate, e.g.
	// "[PN[-H,-L], SCP[L,Z]] AND NOT [CST[Z,Z]]".
	Text string
	// Description is the plain-language reading of the predicate's
	// positive compositions (Table 1 phrasing), e.g.
	// "negative peak, then rise into constant segment".
	Description string
}

// WindowDetection is one fired window of a batch scan, with the rule
// predicates that fired on it.
type WindowDetection struct {
	// Window is the 0-based sliding-window index (as in DetectWindows).
	Window int
	// Start and End delimit the covered points (inclusive, 0-based
	// indices into the series): window w covers points [w+1, w+ω].
	Start, End int
	// Fired lists the matching rule predicates in rule order.
	Fired []FiredPredicate
	// Type is the anomaly-type tag pyramid detections carry
	// (point/contextual/collective, see pyramid.go); empty for
	// single-scale models.
	Type AnomalyType
	// Scales breaks a pyramid detection down per resolution; nil for
	// single-scale models.
	Scales []ScaleDetection
}

// finalizeRules derives the simplified rule from the raw extraction,
// compiles it into the model's shared matching engine, and caches the
// per-predicate renderings so hot detection paths (streams, batch
// serving) neither re-match compositions nor re-format rule text per
// window. Fit and Load both call it exactly once; a Model is immutable
// afterwards.
func (m *Model) finalizeRules() {
	m.rule = rules.Simplify(m.raw)
	m.eng = engine.Compile(m.rule, m.Opts.Omega)
	m.predTexts = make([]string, len(m.rule.Predicates))
	m.predDescs = make([]string, len(m.rule.Predicates))
	m.predPeaks = make([]bool, len(m.rule.Predicates))
	for i, p := range m.rule.Predicates {
		m.predTexts[i] = p.Format(m.pcfg)
		m.predDescs[i] = describePredicate(p)
		m.predPeaks[i] = predicateIsPeak(p)
	}
}

// predicateIsPeak reports whether any positive composition of the
// predicate contains a peak label (PP/PN) — a shape that pins an
// anomaly to a single extremal point rather than a sustained run.
func predicateIsPeak(p rules.Predicate) bool {
	for _, c := range p.PositiveCompositions() {
		for _, l := range c.Labels {
			if l.Var == pattern.PP || l.Var == pattern.PN {
				return true
			}
		}
	}
	return false
}

// describePredicate joins the natural-language readings of a predicate's
// positive compositions.
func describePredicate(p rules.Predicate) string {
	var parts []string
	for _, c := range p.PositiveCompositions() {
		parts = append(parts, rules.Describe(c))
	}
	return strings.Join(parts, "; ")
}

// firedFromIndices renders engine predicate indices (0-based) into the
// cached human-readable FiredPredicate views (1-based, rule order).
func (m *Model) firedFromIndices(idxs []int) []FiredPredicate {
	if len(idxs) == 0 {
		return nil
	}
	out := make([]FiredPredicate, len(idxs))
	for k, pi := range idxs {
		out[k] = m.firedPredicate(pi)
	}
	return out
}

// firedPredicate is the cached rendering of engine predicate pi.
func (m *Model) firedPredicate(pi int) FiredPredicate {
	return FiredPredicate{Index: pi + 1, Text: m.predTexts[pi], Description: m.predDescs[pi]}
}

// appendFired appends the renderings of the predicates that fired on
// window w of marks to dst, in rule order.
func (m *Model) appendFired(dst []FiredPredicate, marks *engine.Marks, w int) []FiredPredicate {
	for pi := range m.predTexts {
		if marks.Has(pi, w) {
			dst = append(dst, m.firedPredicate(pi))
		}
	}
	return dst
}

// DetectExplained runs the rule over a series and returns one entry per
// fired window, each carrying the rule predicates that fired — the
// batch-scoring analogue of DetectWindows for callers who need the
// explanation, not just the flag. The detections are sized from the
// marks' fired-window count, and every detection's Fired is a
// three-index subslice of one slab sized from their firing count, so
// rendering makes two allocations however many windows fire (none when
// none does). A sampled ctx (internal/trace) gets a "detect" span over
// the scoring plus an "engine_sweep" child.
func (m *Model) DetectExplained(ctx context.Context, s *Series) ([]WindowDetection, error) {
	ctx, span := trace.StartSpan(ctx, "detect")
	marks, err := m.detectMarks(ctx, s)
	if err != nil {
		span.End()
		return nil, err
	}
	var out []WindowDetection
	if n := marks.NumFired(); n > 0 {
		out = make([]WindowDetection, 0, n)
		slab := make([]FiredPredicate, 0, marks.NumHits())
		for w := marks.NextFired(0); w >= 0; w = marks.NextFired(w + 1) {
			start := len(slab)
			slab = m.appendFired(slab, marks, w)
			out = append(out, WindowDetection{
				Window: w,
				Start:  w + 1,
				End:    w + m.Opts.Omega,
				Fired:  slab[start:len(slab):len(slab)],
			})
		}
	}
	if span != nil {
		span.SetAttr("fired", strconv.Itoa(len(out)))
	}
	span.End()
	return out, nil
}

// ScoreRanges reports the same per-window point ranges DetectExplained
// would, skipping the fired-predicate rendering — the lean surface
// shadow scoring runs a candidate through.
func (m *Model) ScoreRanges(ctx context.Context, s *Series) (RangeStats, error) {
	ctx, span := trace.StartSpan(ctx, "score_ranges")
	marks, err := m.detectMarks(ctx, s)
	if err != nil {
		span.End()
		return RangeStats{}, err
	}
	var st RangeStats
	for w := 0; w < marks.NumWindows(); w++ {
		if marks.Fired(w) {
			st.Ranges = append(st.Ranges, [2]int{w + 1, w + m.Opts.Omega})
		}
	}
	if span != nil {
		span.SetAttr("fired", strconv.Itoa(len(st.Ranges)))
	}
	span.End()
	return st, nil
}
