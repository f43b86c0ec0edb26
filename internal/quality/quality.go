// Package quality implements the paper's rule-quality measures (§3.5):
// the interpretability I(c) of a composition (Equation 1), the average
// interpretability M(I_Rs) of a rule predicate (Equation 2), the
// support-weighted quality Q(R) of a rule (Equation 3), and the
// optimization objective F(h) = F1 · Q(R) (Equation 5).
package quality

import (
	"cdt/internal/core"
	"cdt/internal/engine"
	"cdt/internal/evalmetrics"
	"cdt/internal/rules"
)

// Interpretability computes I(c) = 1 − (L_c · N_L) / (ω · MaxL)
// (Equation 1): shorter compositions using fewer distinct labels are more
// interpretable. omega is the window size; maxLabels is the total number
// of labels MaxL — the pattern-alphabet size (2δ+1)². The result is
// clamped to [0,1] for robustness against degenerate inputs.
func Interpretability(c core.Composition, omega, maxLabels int) float64 {
	if omega <= 0 || maxLabels <= 0 {
		return 0
	}
	v := 1 - float64(c.Len()*c.UniqueLabels())/float64(omega*maxLabels)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// PredicateQuality computes M(I_Rs) (Equation 2): the mean I(c) over the
// predicate's compositions. Following the interpretability intent, every
// composition the analyst must read — negated or not — counts. An empty
// predicate has quality 0.
func PredicateQuality(p rules.Predicate, omega, maxLabels int) float64 {
	comps := p.Compositions()
	if len(comps) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range comps {
		sum += Interpretability(c, omega, maxLabels)
	}
	return sum / float64(len(comps))
}

// Report carries the quality evaluation of a rule on a labeled
// observation set.
type Report struct {
	// Q is the rule quality Q(R) (Equation 3).
	Q float64
	// Confusion is the rule's detection confusion matrix on the set.
	Confusion evalmetrics.Confusion
	// PredicateSupports holds S_Rs per predicate: the number of true
	// positives attributed to that predicate.
	PredicateSupports []int
	// PredicateFalsePositives counts, per predicate, the normal
	// observations it (as first matcher) flagged.
	PredicateFalsePositives []int
	// PredicateQualities holds M(I_Rs) per predicate.
	PredicateQualities []float64
}

// F1 is the rule's F1 on the evaluation set.
func (r Report) F1() float64 { return r.Confusion.F1() }

// Objective is F(h) = F1 · Q(R) (Equation 5).
func (r Report) Objective() float64 { return r.F1() * r.Q }

// Evaluate measures a rule on labeled observations and computes Q(R)
// (Equation 3): Q = (1/S) Σ S_Rs · M(I_Rs), where S_Rs is the support of
// predicate Rs (true positives it detects) and S is the support of all
// rule predicates — the correctly classified observations (true positives
// and true negatives) of the whole rule. A predicate's true positive is
// attributed to the first predicate that matches, mirroring ordered rule
// evaluation; attribution does not change Q's numerator because each true
// positive counts once either way. omega and maxLabels parameterize the
// interpretability terms.
//
// marks carries the per-observation match results — r's compiled engine
// swept over the labelings the observations were windowed from
// (engine.Compile(r, ω).Sweep(perSeries...), as Model.evaluate does for
// a Corpus); marks index i must correspond to obs[i]. Evaluate itself
// re-matches nothing: the engine's bit-identity contract guarantees
// marks agree with per-window Predicate.Matches.
func Evaluate(r rules.Rule, obs []core.Observation, marks *engine.Marks, omega, maxLabels int) Report {
	rep := Report{
		PredicateSupports:       make([]int, len(r.Predicates)),
		PredicateFalsePositives: make([]int, len(r.Predicates)),
		PredicateQualities:      make([]float64, len(r.Predicates)),
	}
	for i, p := range r.Predicates {
		rep.PredicateQualities[i] = PredicateQuality(p, omega, maxLabels)
	}
	for i := range obs {
		actual := obs[i].Class == core.Anomaly
		matched := marks.First(i)
		predicted := matched >= 0
		rep.Confusion.Add(predicted, actual)
		if predicted {
			if actual {
				rep.PredicateSupports[matched]++
			} else {
				rep.PredicateFalsePositives[matched]++
			}
		}
	}
	s := rep.Confusion.TP + rep.Confusion.TN
	if s == 0 {
		return rep
	}
	num := 0.0
	for i := range r.Predicates {
		num += float64(rep.PredicateSupports[i]) * rep.PredicateQualities[i]
	}
	rep.Q = num / float64(s)
	return rep
}
