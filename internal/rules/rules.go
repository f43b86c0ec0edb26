// Package rules converts a trained CDT into human-interpretable decision
// rules (paper §3.4): each branch leading to an anomaly leaf becomes a
// *rule predicate* — a conjunction of positive and negated compositions —
// and the rule is the disjunction of all predicates. Boolean
// sum-of-products simplification then minimizes the predicates, e.g.
// (c1) ∨ (c2∧¬c1) ∨ (c3∧¬c2∧¬c1) = c1 ∨ c2 ∨ c3.
package rules

import (
	"fmt"
	"strings"

	"cdt/internal/core"
	"cdt/internal/pattern"
)

// Literal is a possibly negated composition inside a predicate.
type Literal struct {
	Comp core.Composition
	// Neg marks a negative branch (c ∉o d).
	Neg bool
}

// Key identifies the literal (composition identity plus polarity).
func (l Literal) Key() string {
	if l.Neg {
		return "!" + l.Comp.Key()
	}
	return "+" + l.Comp.Key()
}

// Format renders the literal, prefixing negations with "NOT ".
func (l Literal) Format(cfg pattern.Config) string {
	if l.Neg {
		return "NOT " + l.Comp.Format(cfg)
	}
	return l.Comp.Format(cfg)
}

// Predicate is a conjunction of literals: one branch of the CDT from an
// anomaly leaf back to the root (Definition 6).
type Predicate struct {
	Literals []Literal
}

// Matches evaluates the conjunction against a window of labels.
func (p Predicate) Matches(labels []pattern.Label, mode core.MatchMode) bool {
	for _, lit := range p.Literals {
		if lit.Comp.MatchedBy(labels, mode) == lit.Neg {
			return false
		}
	}
	return true
}

// PositiveCompositions returns the non-negated compositions of the
// predicate; the quality measure M(I_Rs) averages I(c) over these.
func (p Predicate) PositiveCompositions() []core.Composition {
	var out []core.Composition
	for _, lit := range p.Literals {
		if !lit.Neg {
			out = append(out, lit.Comp)
		}
	}
	return out
}

// Compositions returns every composition of the predicate, negated or not.
func (p Predicate) Compositions() []core.Composition {
	out := make([]core.Composition, len(p.Literals))
	for i, lit := range p.Literals {
		out[i] = lit.Comp
	}
	return out
}

// Format renders the conjunction, e.g.
// "[ECP[Z,-L], PP[L,H]] AND NOT [PN[-H,-L], SCP[L,Z]]".
func (p Predicate) Format(cfg pattern.Config) string {
	if len(p.Literals) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(p.Literals))
	for i, lit := range p.Literals {
		parts[i] = lit.Format(cfg)
	}
	return strings.Join(parts, " AND ")
}

// Rule is the disjunction of rule predicates (Definition 7): an
// observation is anomalous when any predicate matches.
type Rule struct {
	Predicates []Predicate
	// Mode is the ⊆o matching semantics inherited from the tree.
	Mode core.MatchMode
}

// Detect evaluates the rule against one window of labels.
func (r Rule) Detect(labels []pattern.Label) bool {
	for _, p := range r.Predicates {
		if p.Matches(labels, r.Mode) {
			return true
		}
	}
	return false
}

// DetectAll evaluates the rule over a batch of observations.
func (r Rule) DetectAll(obs []core.Observation) []bool {
	out := make([]bool, len(obs))
	for i := range obs {
		out[i] = r.Detect(obs[i].Labels)
	}
	return out
}

// Count returns the number of rule predicates — the paper's "number of
// rules" metric (Figure 3 counts each branch/predicate as one rule).
func (r Rule) Count() int { return len(r.Predicates) }

// Format renders the whole rule as one IF-THEN line per predicate.
func (r Rule) Format(cfg pattern.Config) string {
	if len(r.Predicates) == 0 {
		return "(no anomaly rules)"
	}
	var b strings.Builder
	for i, p := range r.Predicates {
		fmt.Fprintf(&b, "R%d: IF %s THEN anomaly\n", i+1, p.Format(cfg))
	}
	return b.String()
}

// LeafPolicy selects which leaves of the CDT yield rule predicates.
type LeafPolicy int

const (
	// PureAnomalyLeaves follows the paper exactly: "we only consider
	// pure leaf-nodes leading to the anomaly class".
	PureAnomalyLeaves LeafPolicy = iota
	// MajorityAnomalyLeaves also extracts predicates from impure leaves
	// whose majority class is anomaly — useful when noise prevents pure
	// leaves (ablated in the benchmarks).
	MajorityAnomalyLeaves
)

// String names the policy for reports.
func (lp LeafPolicy) String() string {
	if lp == MajorityAnomalyLeaves {
		return "majority-anomaly"
	}
	return "pure-anomaly"
}

// FromTree extracts the rule from a trained CDT: every root-to-leaf
// branch ending in an anomaly leaf (per policy) becomes one predicate,
// with positive branches contributing c and negative branches ¬c
// (Definition 6). Predicates appear in left-to-right leaf order.
func FromTree(t *core.Tree, policy LeafPolicy) Rule {
	r := Rule{Mode: t.Opts.Match}
	var path []Literal
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		if n.Leaf() {
			take := n.Class() == core.Anomaly
			if policy == PureAnomalyLeaves {
				take = take && n.Pure() && n.Counts.Anomaly > 0
			}
			if take {
				r.Predicates = append(r.Predicates, Predicate{Literals: append([]Literal(nil), path...)})
			}
			return
		}
		path = append(path, Literal{Comp: *n.Composition})
		walk(n.ChildTrue)
		path[len(path)-1].Neg = true
		walk(n.ChildFalse)
		path = path[:len(path)-1]
	}
	walk(t.Root)
	return r
}
