package rules

// The paper's future work (§5): "combine rules by a generalization and
// eliminate redundant rules". This file implements the generalization:
// Generalize widens the magnitude intervals of rule compositions — e.g.
// PP[L,H] → PP[+,+] ("any positive peak") — greedily, keeping a
// widening only when the rule's F1 on a labeled reference set does not
// degrade. Generalized rules transfer better across magnitude regimes
// (seasons, sensors) and read even more naturally. Eliminating
// redundant rules needs only the per-predicate true-positive counts a
// quality evaluation already makes, so it lives with that evaluation:
// cdt's Model.PruneRedundant.

import (
	"fmt"
	"strings"

	"cdt/internal/core"
	"cdt/internal/evalmetrics"
	"cdt/internal/pattern"
)

// MagnitudeRange is an inclusive interval-code range. The zero-width
// range pins an exact code; the full positive range [1,δ] means "any
// positive magnitude".
type MagnitudeRange struct {
	Min, Max pattern.Interval
}

// Contains reports whether the code falls inside the range.
func (r MagnitudeRange) Contains(iv pattern.Interval) bool {
	return iv >= r.Min && iv <= r.Max
}

// Exact reports whether the range pins a single code.
func (r MagnitudeRange) Exact() bool { return r.Min == r.Max }

// name renders the range: exact codes use the interval name, widened
// ranges collapse to "+" / "-" (any positive / any negative magnitude).
func (r MagnitudeRange) name(delta int) string {
	if r.Exact() {
		return r.Min.Name(delta)
	}
	if r.Min > 0 {
		return "+"
	}
	return "-"
}

// GeneralLabel matches a pattern label by variation type and magnitude
// ranges.
type GeneralLabel struct {
	Var   pattern.Variation
	Alpha MagnitudeRange
	Beta  MagnitudeRange
}

// Matches reports whether the label satisfies the constraint.
func (g GeneralLabel) Matches(l pattern.Label) bool {
	return l.Var == g.Var && g.Alpha.Contains(l.Alpha) && g.Beta.Contains(l.Beta)
}

// GeneralComposition is an ordered sequence of generalized labels.
type GeneralComposition []GeneralLabel

// MatchedBy reports whether the composition occurs in the labels under
// the given ⊆o mode.
func (c GeneralComposition) MatchedBy(labels []pattern.Label, mode core.MatchMode) bool {
	if len(c) == 0 {
		return true
	}
	if len(c) > len(labels) {
		return false
	}
	if mode == core.MatchSubsequence {
		j := 0
		for _, l := range labels {
			if c[j].Matches(l) {
				j++
				if j == len(c) {
					return true
				}
			}
		}
		return false
	}
outer:
	for start := 0; start+len(c) <= len(labels); start++ {
		for j := range c {
			if !c[j].Matches(labels[start+j]) {
				continue outer
			}
		}
		return true
	}
	return false
}

// Format renders the composition, e.g. "[PP[+,+], PN[-H,-L]]".
func (c GeneralComposition) Format(cfg pattern.Config) string {
	parts := make([]string, len(c))
	for i, g := range c {
		parts[i] = fmt.Sprintf("%s[%s,%s]", g.Var, g.Alpha.name(cfg.Delta), g.Beta.name(cfg.Delta))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// GeneralPredicate is a conjunction of generalized positive compositions
// and exact negative compositions. Negatives stay exact: widening a
// negated composition would suppress detections the tree never excluded.
type GeneralPredicate struct {
	Positives []GeneralComposition
	Negatives []core.Composition
}

// Matches evaluates the conjunction.
func (p GeneralPredicate) Matches(labels []pattern.Label, mode core.MatchMode) bool {
	for _, c := range p.Positives {
		if !c.MatchedBy(labels, mode) {
			return false
		}
	}
	for _, c := range p.Negatives {
		if c.MatchedBy(labels, mode) {
			return false
		}
	}
	return true
}

// Format renders the conjunction.
func (p GeneralPredicate) Format(cfg pattern.Config) string {
	var parts []string
	for _, c := range p.Positives {
		parts = append(parts, c.Format(cfg))
	}
	for _, c := range p.Negatives {
		parts = append(parts, "NOT "+c.Format(cfg))
	}
	if len(parts) == 0 {
		return "TRUE"
	}
	return strings.Join(parts, " AND ")
}

// GeneralRule is a disjunction of generalized predicates.
type GeneralRule struct {
	Predicates []GeneralPredicate
	Mode       core.MatchMode
}

// Detect evaluates the rule on a window of labels.
func (r GeneralRule) Detect(labels []pattern.Label) bool {
	for _, p := range r.Predicates {
		if p.Matches(labels, r.Mode) {
			return true
		}
	}
	return false
}

// Count returns the number of predicates.
func (r GeneralRule) Count() int { return len(r.Predicates) }

// Format renders the rule as IF-THEN lines.
func (r GeneralRule) Format(cfg pattern.Config) string {
	if len(r.Predicates) == 0 {
		return "(no anomaly rules)"
	}
	var b strings.Builder
	for i, p := range r.Predicates {
		fmt.Fprintf(&b, "R%d: IF %s THEN anomaly\n", i+1, p.Format(cfg))
	}
	return b.String()
}

// F1 scores the rule's window-level detection on labeled observations.
func (r GeneralRule) F1(obs []core.Observation) float64 {
	var conf evalmetrics.Confusion
	for i := range obs {
		conf.Add(r.Detect(obs[i].Labels), obs[i].Class == core.Anomaly)
	}
	return conf.F1()
}

// liftRule converts an exact rule to its generalized form with every
// range pinned.
func liftRule(r Rule) GeneralRule {
	out := GeneralRule{Mode: r.Mode}
	for _, p := range r.Predicates {
		var gp GeneralPredicate
		for _, lit := range p.Literals {
			if lit.Neg {
				gp.Negatives = append(gp.Negatives, lit.Comp)
				continue
			}
			gc := make(GeneralComposition, len(lit.Comp.Labels))
			for i, l := range lit.Comp.Labels {
				gc[i] = GeneralLabel{
					Var:   l.Var,
					Alpha: MagnitudeRange{Min: l.Alpha, Max: l.Alpha},
					Beta:  MagnitudeRange{Min: l.Beta, Max: l.Beta},
				}
			}
			gp.Positives = append(gp.Positives, gc)
		}
		out.Predicates = append(out.Predicates, gp)
	}
	return out
}

// fullRange widens a pinned code to its whole sign class: positive codes
// to [1,δ], negative to [-δ,-1]; the zero code stays exact.
func fullRange(iv pattern.Interval, delta int) MagnitudeRange {
	switch {
	case iv > 0:
		return MagnitudeRange{Min: 1, Max: pattern.Interval(delta)}
	case iv < 0:
		return MagnitudeRange{Min: pattern.Interval(-delta), Max: -1}
	default:
		return MagnitudeRange{}
	}
}

// Generalize widens rule magnitudes greedily: for every positive
// composition label, each magnitude range is widened to its full sign
// class and the widening is kept only if the rule's F1 on the reference
// observations does not drop. Identical predicates produced by the
// widening are merged. The reference set should be labeled data the rule
// was not trained on (validation windows) so the generalization is
// justified by evidence rather than training fit.
func Generalize(r Rule, obs []core.Observation, delta int) GeneralRule {
	g := liftRule(r)
	if len(obs) == 0 {
		return g
	}
	best := g.F1(obs)
	for pi := range g.Predicates {
		for ci := range g.Predicates[pi].Positives {
			comp := g.Predicates[pi].Positives[ci]
			for li := range comp {
				// Try widening α, then β, independently.
				for _, widen := range []func(*GeneralLabel){
					func(gl *GeneralLabel) { gl.Alpha = fullRange(gl.Alpha.Min, delta) },
					func(gl *GeneralLabel) { gl.Beta = fullRange(gl.Beta.Min, delta) },
				} {
					saved := comp[li]
					widen(&comp[li])
					if comp[li] == saved {
						continue
					}
					if f1 := g.F1(obs); f1 >= best {
						best = f1
					} else {
						comp[li] = saved
					}
				}
			}
		}
	}
	return mergeDuplicatePredicates(g)
}

// mergeDuplicatePredicates deduplicates predicates that became identical
// after widening.
func mergeDuplicatePredicates(g GeneralRule) GeneralRule {
	seen := make(map[string]bool)
	out := GeneralRule{Mode: g.Mode}
	cfg := pattern.Config{Delta: 21} // names are only used as identity keys
	for _, p := range g.Predicates {
		key := p.Format(cfg)
		if seen[key] {
			continue
		}
		seen[key] = true
		out.Predicates = append(out.Predicates, p)
	}
	return out
}
