// Package core implements the paper's primary contribution: the
// Composition-based Decision Tree (CDT, §3.3, Algorithm 1).
//
// The tree is induced over *observations* — fixed-size sliding windows of
// a labeled time-series (Definition 4) — and splits nodes on
// *compositions*: ordered subsequences of pattern labels (Definition 5)
// chosen to maximize information gain under the Gini impurity.
package core

import (
	"fmt"

	"cdt/internal/pattern"
)

// Class is the binary classification target of an observation.
type Class uint8

const (
	// Normal marks an observation without any anomalous point.
	Normal Class = iota
	// Anomaly marks an observation covering at least one anomalous point.
	Anomaly
)

// String returns "normal" or "anomaly".
func (c Class) String() string {
	if c == Anomaly {
		return "anomaly"
	}
	return "normal"
}

// Observation is one sliding window over a labeled series (Definition 4):
// ω consecutive pattern labels plus the window's class.
type Observation struct {
	// Labels are the ω pattern labels of the window.
	Labels []pattern.Label
	// Class is Anomaly if the window covers at least one annotated
	// anomalous point of the original series.
	Class Class
	// Start is the index of the window's first label in the labeled
	// series (label j corresponds to point j+1 of the raw series).
	Start int
}

// Windows cuts a labeled series into observations using a sliding window
// of size omega and step 1 (Definition 4). pointAnomalies are the anomaly
// flags of the *original* series (length = len(labels)+2); a window is
// Anomaly-classed when any original point it covers — points
// [start+1, start+omega] — is flagged. Pass nil pointAnomalies to build
// unlabeled observations (all Normal), e.g. for detection on new data.
func Windows(labels []pattern.Label, pointAnomalies []bool, omega int) ([]Observation, error) {
	var n int
	if omega >= 1 && omega <= len(labels) {
		n = len(labels) - omega + 1
	}
	out, err := AppendWindows(make([]Observation, 0, n), labels, pointAnomalies, omega)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendWindows appends the observations Windows returns to dst and
// returns the extended slice, allocating only when dst lacks capacity —
// so a caller pooling many series' windows fills one presized slice in
// place. On error dst is returned unchanged.
func AppendWindows(dst []Observation, labels []pattern.Label, pointAnomalies []bool, omega int) ([]Observation, error) {
	if omega < 1 {
		return dst, fmt.Errorf("core: window size %d, want >= 1", omega)
	}
	if omega > len(labels) {
		return dst, fmt.Errorf("core: window size %d exceeds %d labels", omega, len(labels))
	}
	if pointAnomalies != nil && len(pointAnomalies) != len(labels)+2 {
		return dst, fmt.Errorf("core: %d anomaly flags for %d labels, want %d", len(pointAnomalies), len(labels), len(labels)+2)
	}
	for start := 0; start+omega <= len(labels); start++ {
		obs := Observation{Labels: labels[start : start+omega], Start: start}
		if pointAnomalies != nil {
			// Label j covers original point j+1; the window covers
			// points start+1 .. start+omega.
			for p := start + 1; p <= start+omega; p++ {
				if pointAnomalies[p] {
					obs.Class = Anomaly
					break
				}
			}
		}
		dst = append(dst, obs)
	}
	return dst, nil
}

// ClassCounts tallies observations per class.
type ClassCounts struct {
	Normal, Anomaly int
}

// Total returns the number of counted observations.
func (cc ClassCounts) Total() int { return cc.Normal + cc.Anomaly }

// Count tallies the classes of a set of observations.
func Count(obs []Observation) ClassCounts {
	var cc ClassCounts
	for i := range obs {
		if obs[i].Class == Anomaly {
			cc.Anomaly++
		} else {
			cc.Normal++
		}
	}
	return cc
}

// Majority returns the majority class of the counts, preferring Anomaly on
// ties (an undecidable leaf is more useful raising an alarm than staying
// silent).
func (cc ClassCounts) Majority() Class {
	if cc.Anomaly >= cc.Normal {
		if cc.Anomaly == 0 {
			return Normal
		}
		return Anomaly
	}
	return Normal
}

// Pure reports whether all observations share one class.
func (cc ClassCounts) Pure() bool { return cc.Normal == 0 || cc.Anomaly == 0 }
