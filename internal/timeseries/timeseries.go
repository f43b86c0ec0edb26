// Package timeseries provides the univariate time-series container used
// throughout the CDT reproduction, together with the preprocessing
// operations the paper applies before labeling: min-max normalization to
// [0,1], resampling (downsampling by aggregation), and chronological
// train/validation/test splitting.
//
// A series may carry point-level anomaly annotations; preprocessing
// operations propagate those annotations so that downstream evaluation
// remains aligned with the values.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Series is a univariate time-series: values uniformly spaced in time,
// optionally annotated with per-point anomaly flags.
//
// Anomalies is either nil (no annotations) or has the same length as
// Values, with Anomalies[i] reporting whether point i is anomalous.
type Series struct {
	// Name identifies the series (e.g. a sensor id); informational only.
	Name string
	// Values holds the observations in time order.
	Values []float64
	// Anomalies flags anomalous points; nil when the series is unlabeled.
	Anomalies []bool
}

// ErrEmpty is returned by operations that require at least one point.
var ErrEmpty = errors.New("timeseries: empty series")

// New returns an unlabeled series over values. The slice is used directly,
// not copied.
func New(name string, values []float64) *Series {
	return &Series{Name: name, Values: values}
}

// NewLabeled returns a labeled series. It panics if anomalies is non-nil
// and its length differs from values, since that always indicates a
// programming error rather than bad input data.
func NewLabeled(name string, values []float64, anomalies []bool) *Series {
	if anomalies != nil && len(anomalies) != len(values) {
		panic(fmt.Sprintf("timeseries: %d values but %d anomaly flags", len(values), len(anomalies)))
	}
	return &Series{Name: name, Values: values, Anomalies: anomalies}
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Values) }

// Labeled reports whether the series carries anomaly annotations.
func (s *Series) Labeled() bool { return s.Anomalies != nil }

// AnomalyCount returns the number of annotated anomalous points.
func (s *Series) AnomalyCount() int {
	n := 0
	for _, a := range s.Anomalies {
		if a {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	c := &Series{Name: s.Name}
	c.Values = append([]float64(nil), s.Values...)
	if s.Anomalies != nil {
		c.Anomalies = append([]bool(nil), s.Anomalies...)
	}
	return c
}

// MinMax returns the minimum and maximum values of the series. It
// fails on a NaN or infinite value, naming its index, and on a range
// whose width overflows, since neither can be normalized to [0,1]. The
// comparisons are < and >, not math.Min and math.Max, which order -0
// below +0.
func (s *Series) MinMax() (min, max float64, err error) {
	if len(s.Values) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = s.Values[0], s.Values[0]
	// v-v is 0 for a finite v and NaN otherwise. Summing it keeps the
	// scan as fast as a bare min/max loop; testing each value with
	// math.IsNaN and math.IsInf made it about 1.6× slower.
	var nonFinite float64
	for _, v := range s.Values {
		nonFinite += v - v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if nonFinite != 0 {
		i := slices.IndexFunc(s.Values, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) })
		return 0, 0, fmt.Errorf("timeseries: value %d is %v, want a finite reading", i, s.Values[i])
	}
	if math.IsInf(max-min, 0) {
		return 0, 0, fmt.Errorf("timeseries: range [%g, %g] is too wide to normalize", min, max)
	}
	return min, max, nil
}

// Normalize rescales the series in place to the range [0,1] (min-max
// normalization), achieving the scale and offset invariance required by
// the pattern alphabet (paper §3.1). A constant series maps to all zeros.
// It returns the scaling applied so callers can invert it.
func (s *Series) Normalize() (Scale, error) {
	min, max, err := s.MinMax()
	if err != nil {
		return Scale{}, err
	}
	sc := Scale{Min: min, Max: max}
	den := max - min
	if den == 0 {
		for i := range s.Values {
			s.Values[i] = 0
		}
		return sc, nil
	}
	for i, v := range s.Values {
		s.Values[i] = (v - min) / den
	}
	return sc, nil
}

// Scale records a min-max normalization so it can be applied to new
// readings.
type Scale struct {
	Min, Max float64
}

// Apply maps an original-range value to the normalized range. A degenerate
// scale (Max == Min) maps everything to 0.
func (sc Scale) Apply(v float64) float64 {
	if sc.Max == sc.Min {
		return 0
	}
	return (v - sc.Min) / (sc.Max - sc.Min)
}

// Aggregator combines the points of one resampling bucket into one value.
type Aggregator func(bucket []float64) float64

// Mean averages a bucket. It is the paper's downsampling aggregator
// (e.g. hourly electricity readings resampled to daily consumption).
func Mean(bucket []float64) float64 {
	sum := 0.0
	for _, v := range bucket {
		sum += v
	}
	return sum / float64(len(bucket))
}

// Max takes the bucket maximum.
func Max(bucket []float64) float64 {
	m := bucket[0]
	for _, v := range bucket[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Downsample reduces the sampling frequency by grouping every factor
// consecutive points into one bucket and aggregating each bucket with agg.
// A trailing partial bucket is aggregated as-is. A bucket of the output is
// anomalous if any point inside it was anomalous, so annotated anomalies
// survive resampling (paper §3.1, §4.2: "we downsampled these datasets
// from hours to days").
func Downsample(s *Series, factor int, agg Aggregator) (*Series, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("timeseries: downsample factor %d, want >= 1", factor)
	}
	if len(s.Values) == 0 {
		return nil, ErrEmpty
	}
	if factor == 1 {
		return s.Clone(), nil
	}
	n := (len(s.Values) + factor - 1) / factor
	out := &Series{Name: s.Name, Values: make([]float64, 0, n)}
	if s.Anomalies != nil {
		out.Anomalies = make([]bool, 0, n)
	}
	for i := 0; i < len(s.Values); i += factor {
		end := i + factor
		if end > len(s.Values) {
			end = len(s.Values)
		}
		out.Values = append(out.Values, agg(s.Values[i:end]))
		if s.Anomalies != nil {
			anom := false
			for _, a := range s.Anomalies[i:end] {
				if a {
					anom = true
					break
				}
			}
			out.Anomalies = append(out.Anomalies, anom)
		}
	}
	return out, nil
}

// Split holds the chronological partition used by the evaluation protocol.
type Split struct {
	Train, Validation, Test *Series
}

// ChronologicalSplit partitions the series into contiguous train,
// validation, and test segments with the given fractions (paper §4.1 uses
// 60/20/20), rounded so that each part keeps at least one point.
// Fractions must be positive and sum to 1 within 1e-9.
func ChronologicalSplit(s *Series, trainFrac, valFrac, testFrac float64) (Split, error) {
	sum := trainFrac + valFrac + testFrac
	if trainFrac <= 0 || valFrac <= 0 || testFrac <= 0 || math.Abs(sum-1) > 1e-9 {
		return Split{}, fmt.Errorf("timeseries: split fractions %v/%v/%v must be positive and sum to 1", trainFrac, valFrac, testFrac)
	}
	n := len(s.Values)
	if n < 3 {
		return Split{}, fmt.Errorf("timeseries: series of length %d cannot be split three ways", n)
	}
	trainEnd := min(max(int(math.Round(float64(n)*trainFrac)), 1), n-2)
	valEnd := min(max(trainEnd+int(math.Round(float64(n)*valFrac)), trainEnd+1), n-1)
	return Split{
		Train:      s.Slice(0, trainEnd),
		Validation: s.Slice(trainEnd, valEnd),
		Test:       s.Slice(valEnd, n),
	}, nil
}

// Slice returns the sub-series on [lo, hi). The underlying storage is
// shared with the parent series.
func (s *Series) Slice(lo, hi int) *Series {
	out := &Series{Name: s.Name, Values: s.Values[lo:hi]}
	if s.Anomalies != nil {
		out.Anomalies = s.Anomalies[lo:hi]
	}
	return out
}
