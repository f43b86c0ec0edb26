package pattern

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLabelPointVariationTypes(t *testing.T) {
	cfg := NewConfig(2)
	tests := []struct {
		name             string
		prev, mid, next  float64
		wantVar          Variation
		wantAlpha, wantB Interval
	}{
		{"positive peak", 0.2, 0.6, 0.0, PP, 1, 2},
		{"negative peak", 0.8, 0.2, 0.9, PN, -2, -2},
		{"start constant positive", 0.1, 0.7, 0.7, SCP, 2, 0},
		{"start constant negative", 0.5, 0.1, 0.1, SCN, -1, 0},
		{"end constant with rise", 0.3, 0.3, 0.55, ECP, 0, -1},
		{"end constant with fall", 0.9, 0.9, 0.2, ECN, 0, 2},
		{"constant", 0.4, 0.4, 0.4, CST, 0, 0},
		{"steady rise", 0.1, 0.4, 0.8, VP, 1, -1},
		{"steady fall", 0.9, 0.5, 0.2, VN, -1, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			l := cfg.LabelPoint(tc.prev, tc.mid, tc.next)
			if l.Var != tc.wantVar {
				t.Errorf("variation = %v, want %v", l.Var, tc.wantVar)
			}
			if l.Alpha != tc.wantAlpha || l.Beta != tc.wantB {
				t.Errorf("intervals = (%d,%d), want (%d,%d)", l.Alpha, l.Beta, tc.wantAlpha, tc.wantB)
			}
		})
	}
}

func TestClassifyBoundaries(t *testing.T) {
	cfg := NewConfig(2) // L = ]0,0.5], H = ]0.5,1]
	tests := []struct {
		diff float64
		want Interval
	}{
		{0, 0},
		{1e-12, 0},    // inside epsilon
		{0.25, 1},     // L
		{0.5, 1},      // boundary belongs to L = ]0,0.5]
		{0.500001, 2}, // just above the boundary is H
		{1.0, 2},      // H upper bound
		{1.5, 2},      // clamped
		{-0.25, -1},
		{-0.5, -1},
		{-0.7, -2},
		{-2, -2}, // clamped
	}
	for _, tc := range tests {
		if got := cfg.Classify(tc.diff); got != tc.want {
			t.Errorf("Classify(%v) = %d, want %d", tc.diff, got, tc.want)
		}
	}
}

func TestClassifyDelta1(t *testing.T) {
	cfg := NewConfig(1)
	if got := cfg.Classify(0.3); got != 1 {
		t.Errorf("Classify(0.3) = %d, want 1", got)
	}
	if got := cfg.Classify(-0.9); got != -1 {
		t.Errorf("Classify(-0.9) = %d, want -1", got)
	}
}

func TestClassifyPropertySignAndBounds(t *testing.T) {
	f := func(diffRaw float64, deltaRaw uint8) bool {
		if math.IsNaN(diffRaw) || math.IsInf(diffRaw, 0) {
			return true
		}
		delta := int(deltaRaw%21) + 1
		cfg := NewConfig(delta)
		diff := math.Mod(diffRaw, 1) // keep in [-1,1]
		iv := cfg.Classify(diff)
		if iv < Interval(-delta) || iv > Interval(delta) {
			return false
		}
		switch {
		case diff > cfg.Epsilon:
			return iv > 0
		case diff < -cfg.Epsilon:
			return iv < 0
		default:
			return iv == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Partition property: for every δ the δ positive sub-intervals exactly
// cover ]ε,1] without gaps — adjacent boundary values map to adjacent
// intervals.
func TestClassifyPartitionIsContiguous(t *testing.T) {
	for delta := 1; delta <= 8; delta++ {
		cfg := NewConfig(delta)
		prev := Interval(0)
		for i := 1; i <= 1000; i++ {
			v := float64(i) / 1000
			iv := cfg.Classify(v)
			if iv < prev {
				t.Fatalf("delta=%d: Classify not monotone at %v: %d after %d", delta, v, iv, prev)
			}
			if iv > prev+1 {
				t.Fatalf("delta=%d: Classify skipped an interval at %v: %d after %d", delta, v, iv, prev)
			}
			prev = iv
		}
		if prev != Interval(delta) {
			t.Fatalf("delta=%d: Classify(1.0) = %d, want %d", delta, prev, delta)
		}
	}
}

func TestLabelSeriesLengthAndAlignment(t *testing.T) {
	cfg := NewConfig(2)
	values := []float64{0, 1, 0, 0.5, 0.5}
	labels, err := cfg.LabelSeries(values)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 3 {
		t.Fatalf("len = %d, want 3", len(labels))
	}
	if labels[0].Var != PP {
		t.Errorf("labels[0] = %v, want PP", labels[0].Var)
	}
	if labels[1].Var != PN {
		t.Errorf("labels[1] = %v, want PN", labels[1].Var)
	}
	if labels[2].Var != SCP {
		t.Errorf("labels[2] = %v, want SCP", labels[2].Var)
	}
}

func TestLabelSeriesTooShort(t *testing.T) {
	cfg := NewConfig(2)
	if _, err := cfg.LabelSeries([]float64{1, 2}); err == nil {
		t.Error("short series accepted")
	}
}

func TestLabelSeriesInvalidConfig(t *testing.T) {
	cfg := Config{Delta: 0}
	if _, err := cfg.LabelSeries([]float64{1, 2, 3}); err == nil {
		t.Error("delta 0 accepted")
	}
	cfg = Config{Delta: 1, Epsilon: -1}
	if _, err := cfg.LabelSeries([]float64{1, 2, 3}); err == nil {
		t.Error("negative epsilon accepted")
	}
}

func TestAlphabetSizeFormula(t *testing.T) {
	for delta := 1; delta <= 10; delta++ {
		cfg := NewConfig(delta)
		want := (2*delta + 1) * (2*delta + 1)
		if got := cfg.AlphabetSize(); got != want {
			t.Errorf("delta=%d: AlphabetSize = %d, want %d", delta, got, want)
		}
		if got := len(cfg.Alphabet()); got != want {
			t.Errorf("delta=%d: len(Alphabet) = %d, want %d", delta, got, want)
		}
	}
}

func TestAlphabetAllValidAndDistinct(t *testing.T) {
	cfg := NewConfig(3)
	seen := make(map[Label]bool)
	for _, l := range cfg.Alphabet() {
		if !cfg.Valid(l) {
			t.Errorf("alphabet label %v invalid", l)
		}
		if seen[l] {
			t.Errorf("alphabet label %v duplicated", l)
		}
		seen[l] = true
	}
}

func TestLabelPointProducesValidLabels(t *testing.T) {
	f := func(a, b, c float64, deltaRaw uint8) bool {
		clamp := func(v float64) float64 {
			v = math.Abs(math.Mod(v, 1))
			if math.IsNaN(v) {
				return 0
			}
			return v
		}
		delta := int(deltaRaw%6) + 1
		cfg := NewConfig(delta)
		l := cfg.LabelPoint(clamp(a), clamp(b), clamp(c))
		return cfg.Valid(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestLabelNameDelta2(t *testing.T) {
	cfg := NewConfig(2)
	l := Label{Var: PP, Alpha: 1, Beta: 2}
	if got := cfg.LabelName(l); got != "PP[L,H]" {
		t.Errorf("LabelName = %q, want PP[L,H]", got)
	}
	l = Label{Var: PN, Alpha: -2, Beta: -1}
	if got := cfg.LabelName(l); got != "PN[-H,-L]" {
		t.Errorf("LabelName = %q, want PN[-H,-L]", got)
	}
	l = Label{Var: CST, Alpha: 0, Beta: 0}
	if got := cfg.LabelName(l); got != "CST[Z,Z]" {
		t.Errorf("LabelName = %q, want CST[Z,Z]", got)
	}
}

func TestLabelNameGenericDelta(t *testing.T) {
	cfg := NewConfig(4)
	l := Label{Var: VP, Alpha: 3, Beta: -4}
	if got := cfg.LabelName(l); got != "VP[P3,N4]" {
		t.Errorf("LabelName = %q, want VP[P3,N4]", got)
	}
}

func TestParseLabelRoundTrip(t *testing.T) {
	for _, delta := range []int{1, 2, 3, 5} {
		cfg := NewConfig(delta)
		for _, l := range cfg.Alphabet() {
			s := cfg.LabelName(l)
			got, err := cfg.ParseLabel(s)
			if err != nil {
				t.Fatalf("delta=%d: ParseLabel(%q): %v", delta, s, err)
			}
			if got != l {
				t.Fatalf("delta=%d: round trip %q: got %v, want %v", delta, s, got, l)
			}
		}
	}
}

func TestParseLabelErrors(t *testing.T) {
	cfg := NewConfig(2)
	for _, s := range []string{"", "PP", "PP[L]", "PP[L,H,Z]", "XX[L,H]", "PP[Q,H]", "PP[L,H"} {
		if _, err := cfg.ParseLabel(s); err == nil {
			t.Errorf("ParseLabel(%q) accepted", s)
		}
	}
}

func TestParseVariationRoundTrip(t *testing.T) {
	for _, v := range Variations() {
		got, err := ParseVariation(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVariation(%q) = %v, %v", v.String(), got, err)
		}
	}
	if _, err := ParseVariation("nope"); err == nil {
		t.Error("ParseVariation accepted junk")
	}
}

func TestValidRejectsInconsistentSigns(t *testing.T) {
	cfg := NewConfig(2)
	bad := []Label{
		{Var: PP, Alpha: -1, Beta: 1},
		{Var: PN, Alpha: 1, Beta: -1},
		{Var: SCP, Alpha: 1, Beta: 1},
		{Var: CST, Alpha: 1, Beta: 0},
		{Var: VP, Alpha: 1, Beta: 1},
		{Var: PP, Alpha: 3, Beta: 1}, // out of delta range
	}
	for _, l := range bad {
		if cfg.Valid(l) {
			t.Errorf("Valid(%v) = true", l)
		}
	}
}

// Labeling a series then checking every label against the defining
// inequalities of Table 1 — the fundamental soundness property.
func TestLabelSeriesSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := NewConfig(3)
	values := make([]float64, 500)
	for i := range values {
		switch rng.Intn(4) {
		case 0:
			if i > 0 {
				values[i] = values[i-1] // force constant runs
			}
		default:
			values[i] = rng.Float64()
		}
	}
	labels, err := cfg.LabelSeries(values)
	if err != nil {
		t.Fatal(err)
	}
	eq := func(a, b float64) bool { return math.Abs(a-b) <= cfg.Epsilon }
	for j, l := range labels {
		prev, mid, next := values[j], values[j+1], values[j+2]
		var want Variation
		switch {
		case mid > prev && mid > next && !eq(mid, prev) && !eq(mid, next):
			want = PP
		case mid < prev && mid < next && !eq(mid, prev) && !eq(mid, next):
			want = PN
		case !eq(mid, prev) && mid > prev && eq(mid, next):
			want = SCP
		case !eq(mid, prev) && mid < prev && eq(mid, next):
			want = SCN
		case eq(mid, prev) && !eq(mid, next) && mid < next:
			want = ECP
		case eq(mid, prev) && !eq(mid, next) && mid > next:
			want = ECN
		case eq(mid, prev) && eq(mid, next):
			want = CST
		case mid > prev && mid < next:
			want = VP
		default:
			want = VN
		}
		if l.Var != want {
			t.Fatalf("label %d: got %v, want %v (points %v %v %v)", j, l.Var, want, prev, mid, next)
		}
	}
}

func TestIntervalNames(t *testing.T) {
	if Interval(0).Name(2) != "Z" || Interval(1).Name(2) != "L" || Interval(-2).Name(2) != "-H" {
		t.Error("delta-2 names wrong")
	}
	if Interval(3).Name(5) != "P3" || Interval(-1).Name(5) != "N1" {
		t.Error("generic names wrong")
	}
}

// TestClassifyClampsHugeDifferences: differences far outside [-1,1]
// clamp to ±δ like any other out-of-range value. Converting |diff|·δ to
// an int first made those at or past 2⁶³ depend on the CPU: on amd64
// they came out as ±1.
func TestClassifyClampsHugeDifferences(t *testing.T) {
	for delta := 1; delta <= 3; delta++ {
		cfg := NewConfig(delta)
		for _, diff := range []float64{4e18, 1e19, 1e300, math.Inf(1)} {
			for _, sgn := range []float64{1, -1} {
				want := Interval(sgn) * Interval(delta)
				if got := cfg.Classify(sgn * diff); got != want {
					t.Errorf("delta=%d: Classify(%v) = %d, want %d", delta, sgn*diff, got, want)
				}
			}
		}
		if got := cfg.Classify(math.NaN()); got != 1 {
			t.Errorf("delta=%d: Classify(NaN) = %d, want 1", delta, got)
		}
	}
}

// refClassify and refVariationOf are the per-point classifier and Table
// 1 lookup as first written, with a branch per case, kept as the oracle
// for the branch-free labeler. refClassify is exact while |diff|·δ stays
// below 2⁶³, where its float-to-int conversion is defined.
func refClassify(c Config, diff float64) Interval {
	if diff >= -c.Epsilon && diff <= c.Epsilon {
		return 0
	}
	neg := diff < 0
	if neg {
		diff = -diff
	}
	f := diff * float64(c.Delta)
	k := int(f)
	if float64(k) != f {
		k++
	}
	if k < 1 {
		k = 1
	}
	if k > c.Delta {
		k = c.Delta
	}
	if neg {
		return Interval(-k)
	}
	return Interval(k)
}

func refVariationOf(alpha, beta Interval) Variation {
	switch {
	case alpha > 0 && beta > 0:
		return PP
	case alpha < 0 && beta < 0:
		return PN
	case alpha > 0 && beta == 0:
		return SCP
	case alpha < 0 && beta == 0:
		return SCN
	case alpha == 0 && beta < 0:
		return ECP
	case alpha == 0 && beta > 0:
		return ECN
	case alpha == 0 && beta == 0:
		return CST
	case alpha > 0 && beta < 0:
		return VP
	default:
		return VN
	}
}

// refLabels labels values point by point with the oracle.
func refLabels(c Config, values []float64) []Label {
	var out []Label
	for j := 1; j+1 < len(values); j++ {
		alpha := refClassify(c, values[j]-values[j-1])
		beta := refClassify(c, values[j]-values[j+1])
		out = append(out, Label{Var: refVariationOf(alpha, beta), Alpha: alpha, Beta: beta})
	}
	return out
}

// refSafe reports whether every difference of successive values keeps
// |diff|·δ below 2⁶², inside the oracle's defined range.
func refSafe(c Config, values []float64) bool {
	for j := 1; j < len(values); j++ {
		if !(math.Abs(values[j]-values[j-1])*float64(c.Delta) < 1<<62) {
			return false
		}
	}
	return true
}

// checkAgainstReference fails t unless LabelSeriesInto labels values as
// the oracle does, and LabelNormalizedInto labels them as the oracle
// labels their min-max normalization.
func checkAgainstReference(t *testing.T, c Config, values []float64) {
	t.Helper()
	prefix := []Label{{Var: PP, Alpha: 1, Beta: 1}} // labels append after it
	got, err := c.LabelSeriesInto(prefix, values)
	if err != nil {
		t.Fatal(err)
	}
	want := append(prefix, refLabels(c, values)...)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("delta=%d: label %d of %v = %v, oracle %v", c.Delta, j-1, values, got[j], want[j])
		}
	}
	lo, hi := slices.Min(values), slices.Max(values)
	if math.IsInf(hi-lo, 0) {
		return // Series.MinMax rejects the range
	}
	norm := make([]float64, len(values))
	for i, v := range values {
		if hi > lo {
			norm[i] = (v - lo) / (hi - lo)
		}
	}
	got, err = c.LabelNormalizedInto(prefix, values, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	want = append(prefix, refLabels(c, norm)...)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("delta=%d: normalized label %d of %v = %v, oracle %v", c.Delta, j-1, values, got[j], want[j])
		}
	}
}

// TestLabelSeriesMatchesReference holds the branch-free labeler to the
// per-point oracle at δ 1–21 over random series, series whose
// differences sit exactly on the interval boundaries j/δ and on ±ε,
// signed zeros, constant runs, and raw values whose differences reach
// |diff|·δ close to 2⁶².
func TestLabelSeriesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for delta := 1; delta <= 21; delta++ {
		c := NewConfig(delta)
		var boundaries []float64 // 0, ±j/δ and their neighbours, ±ε
		for j := 0; j <= delta; j++ {
			b := float64(j) / float64(delta)
			boundaries = append(boundaries, b, -b, math.Nextafter(b, 2), math.Nextafter(b, -2))
		}
		eps := c.Epsilon
		boundaries = append(boundaries, eps, -eps, math.Nextafter(eps, 1), math.Nextafter(-eps, -1), math.Copysign(0, -1))
		for trial := 0; trial < 200; trial++ {
			values := make([]float64, 3+rng.Intn(60))
			scale := 1.0
			switch trial % 4 {
			case 1:
				scale = 1e3
			case 2:
				scale = math.Ldexp(1, 56) / float64(delta) // |diff|·δ < 2⁶²
			}
			for i := range values {
				switch rng.Intn(5) {
				case 0:
					if i > 0 {
						values[i] = values[i-1] // a constant run
					}
				case 1:
					// A difference exactly on a boundary: v and 0 are
					// exact, so v−0 is too.
					values[i] = boundaries[rng.Intn(len(boundaries))]
					if i > 0 {
						values[i-1] = 0
					}
				default:
					values[i] = scale * (2*rng.Float64() - 1)
				}
			}
			checkAgainstReference(t, c, values)
		}
		for _, values := range [][]float64{
			{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)},
			{5, 5, 5, 5},
			{-3, -3, -2, -2, -2},
			{0, eps, 0, -eps, 0, math.Nextafter(eps, 1), 0},
		} {
			checkAgainstReference(t, c, values)
		}
	}
}
