// Package pattern implements the paper's point-labeling alphabet (§3.2):
// every interior point of a normalized time-series is labeled by the
// variation of its two neighbors, refined by magnitude intervals.
//
// For three successive points x[i-1], x[i], x[i+1] the two signed
// differences α = x[i]-x[i-1] and β = x[i]-x[i+1] select one of nine
// variation types (Table 1): PP, PN, SCP, SCN, ECP, ECN, CST, VP, VN.
// The hyper-parameter δ splits ]0,1] and [-1,0[ into δ equal sub-intervals
// each, producing 2δ+1 magnitude codes; each label is the variation type
// plus the two magnitude codes of α and β.
package pattern

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Variation is one of the nine neighbor-shape types of Table 1.
type Variation uint8

// The nine variation types. Values are stable and compact so Label can be
// used as a map key and serialized.
const (
	// PP is a positive peak: x[i-1] < x[i] > x[i+1].
	PP Variation = iota
	// PN is a negative peak: x[i-1] > x[i] < x[i+1].
	PN
	// SCP starts a constant segment after a rise: x[i-1] < x[i] = x[i+1].
	SCP
	// SCN starts a constant segment after a fall: x[i-1] > x[i] = x[i+1].
	SCN
	// ECP ends a constant segment with a rise: x[i-1] = x[i] < x[i+1].
	ECP
	// ECN ends a constant segment with a fall: x[i-1] = x[i] > x[i+1].
	ECN
	// CST is a constant run: x[i-1] = x[i] = x[i+1].
	CST
	// VP is a positive (rising) variation: x[i-1] < x[i] < x[i+1].
	VP
	// VN is a negative (falling) variation: x[i-1] > x[i] > x[i+1].
	VN

	numVariations = 9
)

var variationNames = [numVariations]string{"PP", "PN", "SCP", "SCN", "ECP", "ECN", "CST", "VP", "VN"}

// String returns the paper's name for the variation (PP, PN, ...).
func (v Variation) String() string {
	if int(v) < len(variationNames) {
		return variationNames[v]
	}
	return fmt.Sprintf("Variation(%d)", uint8(v))
}

// ParseVariation converts a name such as "PP" back to its Variation.
func ParseVariation(s string) (Variation, error) {
	for i, n := range variationNames {
		if n == s {
			return Variation(i), nil
		}
	}
	return 0, fmt.Errorf("pattern: unknown variation %q", s)
}

// Variations lists all nine variation types in Table 1 order.
func Variations() []Variation {
	out := make([]Variation, numVariations)
	for i := range out {
		out[i] = Variation(i)
	}
	return out
}

// Interval is a signed magnitude code: 0 is the exact-zero interval Z,
// +k (1 ≤ k ≤ δ) is the k-th sub-interval of ]0,1], and −k the k-th
// sub-interval of [-1,0[ counting away from zero. With δ=2 the paper's
// names apply: +1=L, +2=H, −1=-L, −2=-H, 0=Z.
type Interval int8

// MaxDelta is the largest magnitude granularity δ: an Interval holds
// ±δ in an int8.
const MaxDelta = 127

// Name renders an interval code using the paper's δ=2 nomenclature when
// delta == 2 (L, H, -L, -H, Z) and a generic ±k/δ form otherwise.
func (iv Interval) Name(delta int) string {
	switch {
	case iv == 0:
		return "Z"
	case delta == 2 && iv == 1:
		return "L"
	case delta == 2 && iv == 2:
		return "H"
	case delta == 2 && iv == -1:
		return "-L"
	case delta == 2 && iv == -2:
		return "-H"
	case iv > 0:
		return fmt.Sprintf("P%d", iv)
	default:
		return fmt.Sprintf("N%d", -iv)
	}
}

// Label is a pattern instance (Definition 2): a variation type plus the
// magnitude interval codes of the two differences α = x[i]-x[i-1] and
// β = x[i]-x[i+1]. Label is comparable and usable as a map key.
type Label struct {
	Var   Variation
	Alpha Interval
	Beta  Interval
}

// String renders the label as e.g. "PP[L,H]" (δ=2 names are only used by
// Name, so String uses the generic codes; see Config.LabelName for the
// δ-aware rendering).
func (l Label) String() string {
	return fmt.Sprintf("%s[%d,%d]", l.Var, l.Alpha, l.Beta)
}

// Config controls labeling.
type Config struct {
	// Delta is the paper's δ: the number of equal sub-intervals that
	// ]0,1] and [-1,0[ are each divided into. Must be >= 1.
	Delta int
	// Epsilon is the tolerance below which a difference is treated as
	// zero ("x[i-1] = x[i]"). Normalization introduces rounding error, so
	// exact equality would almost never fire on real data. Zero means
	// exact comparison.
	Epsilon float64
}

// DefaultEpsilon is the equality tolerance used by NewConfig.
const DefaultEpsilon = 1e-9

// NewConfig returns a Config for the given δ with the default tolerance.
func NewConfig(delta int) Config { return Config{Delta: delta, Epsilon: DefaultEpsilon} }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Delta < 1 {
		return fmt.Errorf("pattern: delta %d, want >= 1", c.Delta)
	}
	if c.Delta > MaxDelta {
		return fmt.Errorf("pattern: delta %d, want <= %d", c.Delta, MaxDelta)
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("pattern: epsilon %v, want >= 0", c.Epsilon)
	}
	return nil
}

// AlphabetSize returns the number of distinct labels expressible with this
// δ: four variation types with δ² (α,β) combinations each (PP, PN, VP,
// VN), four with δ (SCP, SCN, ECP, ECN), and CST — in total
// 4δ²+4δ+1 = (2δ+1)². This is MaxL in the interpretability measure I(c).
func (c Config) AlphabetSize() int {
	n := 2*c.Delta + 1
	return n * n
}

// Classify returns the magnitude interval code of a difference value in
// [-1,1]. Differences within Epsilon of zero map to the Z interval; the
// remainder of ]0,1] is split into Delta equal sub-intervals (and
// symmetrically for negatives). Values outside [-1,1], infinities
// included, clamp to the outermost interval ±δ, so labeling never fails
// on out-of-range input. NaN maps to +1.
func (c Config) Classify(diff float64) Interval {
	return classify(diff, float64(c.Delta), c.Epsilon)
}

// classify is Classify with δ already converted. It runs once per point
// of every labeled series, so it has no data-dependent branch: the
// absolute value clears the sign bit, the clamp is a float min, and
// every choice after the conversion is a select the compiler turns into
// a conditional move. Mispredicted branches on the signs and on the Z
// test were most of the labeler's cost.
func classify(diff, delta, eps float64) Interval {
	a := math.Abs(diff)
	// k-th sub-interval of ]0,1]: ]((k-1)/δ, k/δ], i.e. k = ⌈a·δ⌉.
	// An exact boundary such as 0.5 with δ=2 belongs to the lower
	// interval (]0,0.5] per the paper's L = ]0,0.5]), which is what the
	// ceiling gives. The clamp comes before the conversion: int of a
	// float64 at or past 2⁶³, or of +Inf, is implementation-dependent
	// in Go (MinInt64 on amd64, which would clamp to 1 instead of δ).
	f := min(a*delta, delta)
	k := int(f)
	if float64(k) < f {
		k++
	}
	k = max(k, 1)
	if a != a { // NaN, whose conversion above is implementation-dependent
		k = 1
	}
	if a <= eps {
		k = 0
	}
	if diff < 0 {
		k = -k
	}
	return Interval(k)
}

// LabelPoint labels the middle point of three successive values,
// returning the variation type selected by the signs of
// α = mid−prev and β = mid−next, refined by their magnitude intervals.
func (c Config) LabelPoint(prev, mid, next float64) Label {
	alpha := c.Classify(mid - prev)
	beta := c.Classify(mid - next)
	return Label{Var: variationOf(alpha, beta), Alpha: alpha, Beta: beta}
}

// variationTable is Table 1 as a 3×3 table of 4-bit entries packed into
// one word: entry 3·sign(α) + sign(β) + 4 holds the variation type.
// Shifting a constant, unlike indexing an array, is not a load, so the
// compiler keeps the selects that feed the index as conditional moves
// (it refuses them on values that address a load).
const variationTable = uint64(PN) | uint64(SCN)<<4 | uint64(VN)<<8 | // α < 0
	uint64(ECP)<<12 | uint64(CST)<<16 | uint64(ECN)<<20 | // α = 0
	uint64(VP)<<24 | uint64(SCP)<<28 | uint64(PP)<<32 // α > 0

// variationOf selects the variation type from the signs of α and β by
// a table lookup, so the labeler does not branch on them.
func variationOf(alpha, beta Interval) Variation {
	i := 3*sign(alpha) + sign(beta) + 4
	return Variation(variationTable >> (4 * i & 63) & 0xF)
}

// sign returns −1, 0 or 1 from two arithmetic shifts, without a branch.
// Interval codes stay within ±127, where negation cannot overflow.
func sign(iv Interval) int { return int(iv>>7) - int(-iv>>7) }

// LabelSeries labels every interior point of values (Definition 3): the
// result has len(values)-2 labels, where label j corresponds to point
// j+1 of the input. It returns an error if the series has fewer than
// three points.
func (c Config) LabelSeries(values []float64) ([]Label, error) {
	var capacity int
	if len(values) > 2 {
		capacity = len(values) - 2
	}
	out, err := c.LabelSeriesInto(make([]Label, 0, capacity), values)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LabelSeriesInto appends the labels of every interior point of values to
// dst and returns the extended slice, allocating only when dst lacks
// capacity. Callers that relabel repeatedly — cache refills, pooled
// multi-series labelings — supply one pre-sized backing array and label
// many series into it without per-series garbage. On error dst is
// returned unchanged.
func (c Config) LabelSeriesInto(dst []Label, values []float64) ([]Label, error) {
	if err := c.check(values); err != nil {
		return dst, err
	}
	return c.labelInto(dst, values, 0, 0, false), nil
}

// LabelNormalizedInto appends the labels LabelSeriesInto gives for the
// min-max normalization of values, (v−min)/(max−min), without writing
// the normalized values anywhere: each is computed once, inside the
// labeling pass, with the arithmetic of timeseries.Series.Normalize, so
// the labels are bit-identical to normalizing a copy and labeling it.
// min and max must be the extremes of values (Series.MinMax); when they
// are equal, Normalize maps every value to 0 and every label is
// CST[Z,Z]. On error dst is returned unchanged.
func (c Config) LabelNormalizedInto(dst []Label, values []float64, min, max float64) ([]Label, error) {
	if err := c.check(values); err != nil {
		return dst, err
	}
	den := max - min
	if den == 0 {
		for range len(values) - 2 {
			dst = append(dst, Label{Var: CST})
		}
		return dst, nil
	}
	return c.labelInto(dst, values, min, den, true), nil
}

// check validates the configuration and the series length.
func (c Config) check(values []float64) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if len(values) < 3 {
		return fmt.Errorf("pattern: series of length %d, want >= 3", len(values))
	}
	return nil
}

// labelInto appends the labels of values (at least three), each value
// first mapped to (v−min)/den when scaled.
func (c Config) labelInto(dst []Label, values []float64, min, den float64, scaled bool) []Label {
	at := func(i int) float64 {
		v := values[i]
		if scaled {
			v = (v - min) / den
		}
		return v
	}
	delta, eps := float64(c.Delta), c.Epsilon
	n := len(dst)
	dst = slices.Grow(dst, len(values)-2)[:n+len(values)-2]
	out := dst[n:]
	// Point i's β is Classify(vᵢ−vᵢ₊₁) = −Classify(vᵢ₊₁−vᵢ) — Classify is
	// odd, and negating an (exact) IEEE difference is exact — so each
	// consecutive pair is classified once and serves as point i+1's α and
	// point i's −β, halving the classifier work of the batch labeler.
	cur := at(1)
	alpha := classify(cur-at(0), delta, eps)
	for i := range out {
		next := at(i + 2)
		beta := -classify(next-cur, delta, eps)
		out[i] = Label{Var: variationOf(alpha, beta), Alpha: alpha, Beta: beta}
		alpha, cur = -beta, next
	}
	return dst
}

// LabelName renders a label with δ-aware interval names, e.g. "PP[L,H]"
// for δ=2 or "PP[P1,P3]" for larger δ.
func (c Config) LabelName(l Label) string {
	return fmt.Sprintf("%s[%s,%s]", l.Var, l.Alpha.Name(c.Delta), l.Beta.Name(c.Delta))
}

// ParseLabel parses the output of LabelName back into a Label. It accepts
// both δ=2 names (L, H, -L, -H, Z) and generic codes (P1, N3, Z).
func (c Config) ParseLabel(s string) (Label, error) {
	open := strings.IndexByte(s, '[')
	if open < 0 || !strings.HasSuffix(s, "]") {
		return Label{}, fmt.Errorf("pattern: malformed label %q", s)
	}
	v, err := ParseVariation(s[:open])
	if err != nil {
		return Label{}, err
	}
	parts := strings.Split(s[open+1:len(s)-1], ",")
	if len(parts) != 2 {
		return Label{}, fmt.Errorf("pattern: malformed label %q", s)
	}
	a, err := parseInterval(strings.TrimSpace(parts[0]))
	if err != nil {
		return Label{}, fmt.Errorf("pattern: label %q: %w", s, err)
	}
	b, err := parseInterval(strings.TrimSpace(parts[1]))
	if err != nil {
		return Label{}, fmt.Errorf("pattern: label %q: %w", s, err)
	}
	return Label{Var: v, Alpha: a, Beta: b}, nil
}

func parseInterval(s string) (Interval, error) {
	switch s {
	case "Z":
		return 0, nil
	case "L":
		return 1, nil
	case "H":
		return 2, nil
	case "-L":
		return -1, nil
	case "-H":
		return -2, nil
	}
	if len(s) >= 2 {
		var k int
		// k is bounded to math.MaxInt8 so both Interval(k) and
		// Interval(-k) stay representable; beyond that the int8
		// conversion would wrap and the label could not round-trip
		// through Name.
		switch s[0] {
		case 'P':
			if _, err := fmt.Sscanf(s[1:], "%d", &k); err == nil && k >= 1 && k <= math.MaxInt8 {
				return Interval(k), nil
			}
		case 'N':
			if _, err := fmt.Sscanf(s[1:], "%d", &k); err == nil && k >= 1 && k <= math.MaxInt8 {
				return Interval(-k), nil
			}
		}
	}
	return 0, fmt.Errorf("unknown interval %q", s)
}

// Valid reports whether a label is expressible under this configuration:
// interval codes within ±δ and signs consistent with the variation type
// per Table 1.
func (c Config) Valid(l Label) bool {
	d := Interval(c.Delta)
	if l.Alpha < -d || l.Alpha > d || l.Beta < -d || l.Beta > d {
		return false
	}
	switch l.Var {
	case PP:
		return l.Alpha > 0 && l.Beta > 0
	case PN:
		return l.Alpha < 0 && l.Beta < 0
	case SCP:
		return l.Alpha > 0 && l.Beta == 0
	case SCN:
		return l.Alpha < 0 && l.Beta == 0
	case ECP:
		return l.Alpha == 0 && l.Beta < 0
	case ECN:
		return l.Alpha == 0 && l.Beta > 0
	case CST:
		return l.Alpha == 0 && l.Beta == 0
	case VP:
		return l.Alpha > 0 && l.Beta < 0
	case VN:
		return l.Alpha < 0 && l.Beta > 0
	}
	return false
}

// Alphabet enumerates every valid label for this δ in a deterministic
// order (variation-major, then α, then β). len(result) == AlphabetSize().
func (c Config) Alphabet() []Label {
	var out []Label
	pos := make([]Interval, 0, c.Delta)
	neg := make([]Interval, 0, c.Delta)
	for k := 1; k <= c.Delta; k++ {
		pos = append(pos, Interval(k))
		neg = append(neg, Interval(-k))
	}
	zero := []Interval{0}
	ranges := func(v Variation) (alphas, betas []Interval) {
		switch v {
		case PP:
			return pos, pos
		case PN:
			return neg, neg
		case SCP:
			return pos, zero
		case SCN:
			return neg, zero
		case ECP:
			return zero, neg
		case ECN:
			return zero, pos
		case CST:
			return zero, zero
		case VP:
			return pos, neg
		default:
			return neg, pos
		}
	}
	for _, v := range Variations() {
		alphas, betas := ranges(v)
		for _, a := range alphas {
			for _, b := range betas {
				out = append(out, Label{Var: v, Alpha: a, Beta: b})
			}
		}
	}
	return out
}
