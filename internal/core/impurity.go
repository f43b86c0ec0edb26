package core

import "math"

// SplitCriterion selects the impurity function used to score splits.
type SplitCriterion int

const (
	// Gini is the paper's impurity (§3.3: "we opt to the Gini index").
	Gini SplitCriterion = iota
	// Entropy (Shannon) is provided for ablation against Gini.
	Entropy
)

// String names the criterion for reports.
func (sc SplitCriterion) String() string {
	if sc == Entropy {
		return "entropy"
	}
	return "gini"
}

// Impurity computes the criterion's impurity for a class distribution.
// Gini of a two-class set is 1 − p₀² − p₁² (0 when pure, 0.5 when
// balanced); entropy is −Σ p·log₂p (0 when pure, 1 when balanced).
func (sc SplitCriterion) Impurity(cc ClassCounts) float64 {
	total := cc.Total()
	if total == 0 {
		return 0
	}
	p0 := float64(cc.Normal) / float64(total)
	p1 := float64(cc.Anomaly) / float64(total)
	if sc == Entropy {
		e := 0.0
		if p0 > 0 {
			e -= p0 * math.Log2(p0)
		}
		if p1 > 0 {
			e -= p1 * math.Log2(p1)
		}
		return e
	}
	return 1 - p0*p0 - p1*p1
}

// InformationGain scores a binary partition of parent into (in, out):
// IG = G(parent) − |in|/|parent|·G(in) − |out|/|parent|·G(out).
// A degenerate partition (either side empty) gains nothing.
func (sc SplitCriterion) InformationGain(parent, in, out ClassCounts) float64 {
	return sc.gain(sc.Impurity(parent), parent, in, out)
}

// gain is InformationGain given the parent's impurity, which every
// candidate split of one node shares.
func (sc SplitCriterion) gain(parentImpurity float64, parent, in, out ClassCounts) float64 {
	total := parent.Total()
	if total == 0 || in.Total() == 0 || out.Total() == 0 {
		return 0
	}
	g := parentImpurity
	g -= float64(in.Total()) / float64(total) * sc.Impurity(in)
	g -= float64(out.Total()) / float64(total) * sc.Impurity(out)
	return g
}
