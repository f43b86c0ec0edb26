package cdt

// Fusion policies: how several CDTs voting on the same feed turn their
// per-member verdicts into one decision. MultiModel fuses its
// window-aligned dimension models per window under Policy; PyramidModel
// projects each scale's fired windows (scales are not window-aligned)
// onto original-resolution points and fuses per point under
// Config.Fusion. Both decide through the counting form Fusion.decide.

import (
	"fmt"
	"math"
	"strings"

	"cdt/internal/timeseries"
)

// FusionPolicy selects how per-member verdicts combine.
type FusionPolicy int

const (
	// FuseAny fires when any member fires — the sensitive default.
	FuseAny FusionPolicy = iota
	// FuseMajority fires when more than half the members fire.
	FuseMajority
	// FuseAll fires only when every member fires — the high-precision
	// setting.
	FuseAll
	// FuseKOfN fires when at least Fusion.K members fire.
	FuseKOfN
	// FuseWeighted fires when the weight sum of firing members reaches
	// Fusion.Threshold (weights default to 1 per member).
	FuseWeighted
)

// String names the policy.
func (p FusionPolicy) String() string {
	switch p {
	case FuseMajority:
		return "majority"
	case FuseAll:
		return "all"
	case FuseKOfN:
		return "k-of-n"
	case FuseWeighted:
		return "weighted"
	}
	return "any"
}

// ParseFusionPolicy converts a policy name back to its FusionPolicy.
func ParseFusionPolicy(s string) (FusionPolicy, error) {
	switch s {
	case "", "any":
		return FuseAny, nil
	case "majority":
		return FuseMajority, nil
	case "all":
		return FuseAll, nil
	case "k-of-n":
		return FuseKOfN, nil
	case "weighted":
		return FuseWeighted, nil
	}
	return 0, fmt.Errorf("cdt: unknown fusion policy %q", s)
}

// Fusion is a pluggable verdict-combination policy. The zero value is
// FuseAny.
type Fusion struct {
	// Policy selects the combination rule.
	Policy FusionPolicy
	// K is the firing-member quorum for FuseKOfN.
	K int
	// Weights holds one weight per member for FuseWeighted; nil weights
	// every member 1.
	Weights []float64
	// Threshold is the firing weight sum required by FuseWeighted.
	Threshold float64
}

// Validate checks the policy parameters against the member count.
// context names the owning model and its members (a pyramid's scales, a
// multivariate model's dimensions), so a rejection says whose fusion is
// broken — the model store's audit log and the CLI relay these
// verbatim. A weighted policy that can never fire (all-zero weights, a
// threshold above the total weight) is a configuration error, not a
// quiet model; negative weights are rejected too: a member is ignored,
// never inverted.
func (f Fusion) Validate(context string, members int) error {
	if members < 1 {
		return fmt.Errorf("cdt: %s: fusion needs at least one member", context)
	}
	switch f.Policy {
	case FuseKOfN:
		if f.K < 1 || f.K > members {
			return fmt.Errorf("cdt: %s: fusion quorum k=%d outside [1,%d]", context, f.K, members)
		}
	case FuseWeighted:
		if f.Weights != nil && len(f.Weights) != members {
			return fmt.Errorf("cdt: %s: %d fusion weights for %d members", context, len(f.Weights), members)
		}
		// Sum in member order, as decideMask and FitFusionWeights do, so a
		// threshold capped at the total compares equal to it here.
		total := 0.0
		for i := 0; i < members; i++ {
			w := f.weight(i)
			if !(w >= 0) {
				return fmt.Errorf("cdt: %s: fusion weight %d is %v, want >= 0", context, i, w)
			}
			total += w
		}
		if total == 0 {
			return fmt.Errorf("cdt: %s: all %d fusion weights are zero; weighted fusion would never fire", context, members)
		}
		if !(f.Threshold > 0) {
			return fmt.Errorf("cdt: %s: fusion threshold %v, want > 0", context, f.Threshold)
		}
		if f.Threshold > total {
			return fmt.Errorf("cdt: %s: fusion threshold %v exceeds the total weight %v; weighted fusion would never fire", context, f.Threshold, total)
		}
	case FuseAny, FuseMajority, FuseAll:
	default:
		return fmt.Errorf("cdt: %s: unknown fusion policy %d", context, f.Policy)
	}
	return nil
}

// weight returns member i's voting weight.
func (f Fusion) weight(i int) float64 {
	if f.Weights == nil {
		return 1
	}
	return f.Weights[i]
}

// decide combines an accumulated vote: count members fired (with weight
// sum) out of n. The counting form lets hot detection loops accumulate
// votes without materializing a per-member bool slice per window.
func (f Fusion) decide(count int, weight float64, n int) bool {
	switch f.Policy {
	case FuseMajority:
		return count*2 > n
	case FuseAll:
		return count == n
	case FuseKOfN:
		return count >= f.K
	case FuseWeighted:
		return weight >= f.Threshold
	}
	return count > 0
}

// decideMask is decide over the members whose bits mask sets: it
// counts them and sums their weights in member order, as Decide does
// over a verdict vector, so a weighted threshold meets the same sum.
// It is the pyramid's fusion kernel: every point of a segment covered
// by one set of scales shares that set's decision.
func (f Fusion) decideMask(mask uint, n int) bool {
	count, weight := 0, 0.0
	for i := 0; i < n; i++ {
		if mask>>i&1 != 0 {
			count++
			weight += f.weight(i)
		}
	}
	return f.decide(count, weight, n)
}

// Decide combines one per-member verdict vector into the fused verdict.
func (f Fusion) Decide(fired []bool) bool {
	count, weight := 0, 0.0
	for i, fi := range fired {
		if fi {
			count++
			weight += f.weight(i)
		}
	}
	return f.decide(count, weight, len(fired))
}

// String renders the policy with its parameters.
func (f Fusion) String() string {
	switch f.Policy {
	case FuseKOfN:
		return fmt.Sprintf("%d-of-n", f.K)
	case FuseWeighted:
		return fmt.Sprintf("weighted(>=%g)", f.Threshold)
	}
	return f.Policy.String()
}

// ResampleTransform downsamples the first input dimension by Factor —
// the per-scale input of resolution pyramids. Factor 1 is the identity.
type ResampleTransform struct {
	// Factor is the downsample factor (>= 1).
	Factor int
	// Aggregator names the bucket aggregation: "mean" (default) or
	// "max". "sum" is excluded: it leaves the [0,1] normalization range,
	// which would break scale consistency between batch and streaming
	// detection.
	Aggregator string
}

// canonicalAggregator maps an aggregator name to its canonical form
// ("" is the mean default).
func canonicalAggregator(name string) string {
	if name == "" {
		return "mean"
	}
	return name
}

// aggregatorOf resolves an aggregator name.
func aggregatorOf(name string) (timeseries.Aggregator, error) {
	switch name {
	case "", "mean":
		return timeseries.Mean, nil
	case "max":
		return timeseries.Max, nil
	}
	return nil, fmt.Errorf("cdt: unknown aggregator %q (want mean or max)", name)
}

// Apply downsamples dimension 0 by Factor.
func (t ResampleTransform) Apply(dims []*Series) (*Series, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("cdt: resample transform on empty input")
	}
	agg, err := aggregatorOf(t.Aggregator)
	if err != nil {
		return nil, err
	}
	if t.Factor == 1 {
		return dims[0], nil
	}
	return timeseries.Downsample(dims[0], t.Factor, agg)
}

// validFusionSamples checks a labeled fire-indicator matrix and returns
// the member count.
func validFusionSamples(fired [][]bool, truth []bool) (int, error) {
	if len(fired) == 0 {
		return 0, fmt.Errorf("cdt: no fusion training samples")
	}
	if len(truth) != len(fired) {
		return 0, fmt.Errorf("cdt: %d fusion labels for %d samples", len(truth), len(fired))
	}
	n := len(fired[0])
	if n < 1 {
		return 0, fmt.Errorf("cdt: fusion samples have no members")
	}
	for t, row := range fired {
		if len(row) != n {
			return 0, fmt.Errorf("cdt: fusion sample %d has %d members, want %d", t, len(row), n)
		}
	}
	return n, nil
}

// FitFusionWeights learns FuseWeighted parameters from labeled
// per-member fire indicators: a full-batch logistic fit with a fixed
// iteration budget and slice-ordered accumulation — no randomness, no
// map iteration, no wall-clock — so refitting the same corpus
// reproduces the same weights bit for bit. fired[t][i] reports whether
// member i fired on sample t; truth[t] is the sample's label.
//
// The logistic decision boundary w·x + b >= 0 maps onto weighted
// fusion's monotone form as weights w with Threshold −b. Negative
// weights ("this member firing argues against anomaly") are clamped to
// zero — the monotone weight sum cannot express them and an operator
// cannot read them — and the result is scaled so the largest weight is
// 1 (scaling both sides of the inequality preserves every decision). A
// degenerate fit (no positive weight, or a non-positive threshold)
// falls back to uniform weights with threshold 1 — FuseAny in weighted
// clothing — never an all-zero vector, which Validate rejects.
func FitFusionWeights(fired [][]bool, truth []bool) (Fusion, error) {
	n, err := validFusionSamples(fired, truth)
	if err != nil {
		return Fusion{}, err
	}
	return weightedFusion(fitLogistic(fired, truth, n)), nil
}

// weightedFusion maps a logistic fit's weights and bias onto
// FuseWeighted parameters, as FitFusionWeights describes.
func weightedFusion(w []float64, bias float64) Fusion {
	maxW := 0.0
	for i := range w {
		if w[i] < 0 {
			w[i] = 0
		}
		if w[i] > maxW {
			maxW = w[i]
		}
	}
	threshold := -bias
	if maxW == 0 || threshold <= 0 {
		uniform := make([]float64, len(w))
		for i := range uniform {
			uniform[i] = 1
		}
		return Fusion{Policy: FuseWeighted, Weights: uniform, Threshold: 1}
	}
	total := 0.0
	for i := range w {
		w[i] /= maxW
		total += w[i]
	}
	threshold /= maxW
	if threshold > total {
		// A threshold above the total weight can never fire; cap it at
		// "every member agrees" so the learned rule stays reachable.
		threshold = total
	}
	return Fusion{Policy: FuseWeighted, Weights: w, Threshold: threshold}
}

// fitLogistic runs FitFusionWeights' full-batch gradient descent on the
// logistic loss over n members and returns the raw weights and bias.
// Step count and rate are fixed: the inputs are 0/1 indicators over at
// most maxPyramidScales members, so convergence is quick and
// determinism matters more than the last decimal of the fit.
//
// A sample's logistic term depends only on its fire pattern and label,
// so each step evaluates it once per distinct (pattern, label) key, at
// most 2^(n+1) of them, rather than once per sample. The gradient still
// adds the per-sample terms in sample order, so the result is bit for
// bit that of one evaluation per sample.
func fitLogistic(fired [][]bool, truth []bool, n int) ([]float64, float64) {
	const (
		fitIters = 200
		fitRate  = 0.5
	)
	// keyOf[t] is sample t's key; key k's pattern fires the members
	// on[k], in member order, and its label is labels[k].
	keyOf := make([]int32, len(fired))
	var on [][]int
	var labels []bool
	index := make(map[string]int32)
	buf := make([]byte, n+1)
	for t, row := range fired {
		for i, fi := range row {
			buf[i] = 0
			if fi {
				buf[i] = 1
			}
		}
		buf[n] = 0
		if truth[t] {
			buf[n] = 1
		}
		k, ok := index[string(buf)]
		if !ok {
			k = int32(len(on))
			index[string(buf)] = k
			var members []int
			for i, fi := range row {
				if fi {
					members = append(members, i)
				}
			}
			on = append(on, members)
			labels = append(labels, truth[t])
		}
		keyOf[t] = k
	}
	w := make([]float64, n)
	grad := make([]float64, n)
	d := make([]float64, len(on))
	bias := 0.0
	for it := 0; it < fitIters; it++ {
		for k, members := range on {
			z := bias
			for _, i := range members {
				z += w[i]
			}
			d[k] = 1 / (1 + math.Exp(-z))
			if labels[k] {
				d[k]--
			}
		}
		clear(grad)
		gBias := 0.0
		for _, k := range keyOf {
			dk := d[k]
			gBias += dk
			for _, i := range on[k] {
				grad[i] += dk
			}
		}
		step := fitRate / float64(len(fired))
		bias -= step * gBias
		for i := range w {
			w[i] -= step * grad[i]
		}
	}
	return w, bias
}

// FitFusionK picks the FuseKOfN quorum maximizing F1 over labeled
// per-member fire indicators — the counting-policy counterpart of
// FitFusionWeights, equally deterministic (an exhaustive sweep of
// k=1..n in order, ties kept at the smaller, more sensitive k).
func FitFusionK(fired [][]bool, truth []bool) (Fusion, error) {
	n, err := validFusionSamples(fired, truth)
	if err != nil {
		return Fusion{}, err
	}
	counts := make([]int, len(fired))
	for t, row := range fired {
		for _, fi := range row {
			if fi {
				counts[t]++
			}
		}
	}
	bestK, bestF1 := 1, -1.0
	for k := 1; k <= n; k++ {
		tp, fp, fn := 0, 0, 0
		for t, c := range counts {
			switch pred := c >= k; {
			case pred && truth[t]:
				tp++
			case pred:
				fp++
			case truth[t]:
				fn++
			}
		}
		f1 := 0.0
		if 2*tp+fp+fn > 0 {
			f1 = 2 * float64(tp) / float64(2*tp+fp+fn)
		}
		if f1 > bestF1 {
			bestK, bestF1 = k, f1
		}
	}
	return Fusion{Policy: FuseKOfN, K: bestK}, nil
}

// numRules sums the member models' rule counts.
func numRules(models []*Model) int {
	n := 0
	for _, m := range models {
		n += m.NumRules()
	}
	return n
}

// memberText renders text(m) for every member model, each indented
// under its header(i) line — the per-scale and per-dimension rule
// listings.
func memberText(models []*Model, header func(i int) string, text func(*Model) string) string {
	var b strings.Builder
	for i, m := range models {
		b.WriteString(header(i))
		b.WriteString(":\n")
		for _, line := range strings.Split(strings.TrimRight(text(m), "\n"), "\n") {
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
