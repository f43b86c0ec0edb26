package cdt

// Streaming detection: the paper's use case is monitoring live sensor
// feeds, so the library offers an online detector that consumes one
// reading at a time and reports rule firings as soon as they are
// decidable. A point's pattern label needs its successor, and a window
// needs ω labels, so detections for point p arrive after point p+1 (at
// the earliest) and keep arriving while p stays inside a firing window.
//
// Latency contract: the stream rides the model's incremental engine
// cursor (internal/engine), which keeps O(1) amortized state per label
// instead of re-matching the full ω-window, but the observable timing
// is exactly the sliding-window definition above — a window's detection
// is returned by the Push of its last covered point's successor, never
// earlier and never later, with identical WindowStart/WindowEnd indices
// and identical fired predicates to a batch DetectExplained over the
// same values. Reset preserves the contract: the first window of the
// new run again completes ω+2 pushes in. TestStreamMatchesBatchDetection
// holds both properties.

import (
	"fmt"

	"cdt/internal/engine"
)

// Detection reports one fired window from a stream.
type Detection struct {
	// WindowStart and WindowEnd delimit the covered points (inclusive,
	// 0-based indices into the stream). For pyramid streams these are
	// original-resolution indices regardless of the firing scale.
	WindowStart, WindowEnd int
	// Fired lists the rule predicates that matched the window, in rule
	// order (1-based indices matching RuleText) — the interpretable
	// payload a monitor shows next to the alert.
	Fired []FiredPredicate
	// Scale is the downsample factor of the scale that fired (pyramid
	// streams); 0 for single-scale streams.
	Scale int
	// Type is the anomaly-type tag (pyramid streams); empty for
	// single-scale streams.
	Type AnomalyType
}

// Stream is an online anomaly detector backed by a trained model. It is
// not safe for concurrent use.
type Stream struct {
	model *Model
	scale Scale

	// lastTwo holds the most recent raw values, pending their labels.
	lastTwo [2]float64
	n       int // points consumed

	// cur is this stream's incremental matcher over the model's shared
	// compiled engine: one label in, the completed window's fired
	// predicates out.
	cur *engine.Cursor
}

// Scale fixes the normalization applied to incoming values. Streaming
// cannot min-max normalize retroactively, so the caller provides the
// expected value range up front (e.g. from the training data or sensor
// specification); values outside it clamp to the nearest bound.
type Scale struct {
	Min, Max float64
}

// normalize maps a raw value into [0,1] under the stream's scale.
func (sc Scale) normalize(v float64) float64 {
	if sc.Max <= sc.Min {
		return 0
	}
	n := (v - sc.Min) / (sc.Max - sc.Min)
	if n < 0 {
		return 0
	}
	if n > 1 {
		return 1
	}
	return n
}

// NewStream starts an online detector. The scale must span the values
// the sensor can produce; a degenerate scale is rejected, because
// normalize would silently map every reading to 0. Note that values
// outside a valid scale clamp to the nearest bound.
func (m *Model) NewStream(scale Scale) (*Stream, error) {
	if scale.Max <= scale.Min {
		return nil, fmt.Errorf("cdt: stream scale [%v,%v] is degenerate (Max must exceed Min): "+
			"every reading would normalize to 0; note in-range scales clamp out-of-range values to the nearest bound",
			scale.Min, scale.Max)
	}
	return &Stream{
		model: m,
		scale: scale,
		cur:   m.eng.NewCursor(),
	}, nil
}

// Push consumes the next reading and returns any window detection that
// became decidable with it. At most one new window completes per point,
// so the result is nil or a single detection.
func (s *Stream) Push(value float64) []Detection {
	v := s.scale.normalize(value)
	s.n++
	switch s.n {
	case 1:
		s.lastTwo[0] = v
		return nil
	case 2:
		s.lastTwo[1] = v
		return nil
	}
	// The previous point (0-based index s.n-2) becomes labelable now
	// that its successor arrived.
	label := s.model.pcfg.LabelPoint(s.lastTwo[0], s.lastTwo[1], v)
	s.lastTwo[0], s.lastTwo[1] = s.lastTwo[1], v

	fired, complete := s.cur.Step(label)
	if !complete || len(fired) == 0 {
		return nil
	}
	// The ω labels cover original points [first labeled .. last labeled]:
	// the newest label belongs to 0-based point s.n-2, the oldest in the
	// window to s.n-2-(omega-1).
	end := s.n - 2
	return []Detection{{
		WindowStart: end - s.model.Opts.Omega + 1,
		WindowEnd:   end,
		Fired:       s.model.firedFromIndices(fired),
	}}
}

// Points returns the number of readings consumed.
func (s *Stream) Points() int { return s.n }

// Ready reports whether the stream has seen enough points to evaluate
// full windows.
func (s *Stream) Ready() bool { return s.cur.RunLen() >= s.model.Opts.Omega }

// Reset clears the stream state, keeping the model and scale. The engine
// cursor starts a new run in O(1): windows never span the boundary, and
// post-Reset detections arrive with the same latency as from a fresh
// stream.
func (s *Stream) Reset() {
	s.n = 0
	s.cur.Reset()
}
