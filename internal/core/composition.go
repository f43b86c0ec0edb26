package core

import (
	"strings"

	"cdt/internal/pattern"
)

// MatchMode selects the semantics of the ⊆o relation (Definition 5).
type MatchMode int

const (
	// MatchContiguous treats a composition as a contiguous, ordered run
	// of labels (a substring of the observation). This is the default and
	// matches the paper's usage: compositions are "ordered sequences of
	// remarkable points" describing a local shape.
	MatchContiguous MatchMode = iota
	// MatchSubsequence allows gaps: the composition's labels must appear
	// in order but not necessarily adjacently. Provided for ablation.
	MatchSubsequence
)

// String names the mode for reports.
func (m MatchMode) String() string {
	if m == MatchSubsequence {
		return "subsequence"
	}
	return "contiguous"
}

// Composition is an ordered sequence of pattern labels (Definition 5)
// used to split tree nodes and to build rule predicates.
type Composition struct {
	Labels []pattern.Label
}

// Len returns the composition length L_c.
func (c Composition) Len() int { return len(c.Labels) }

// UniqueLabels returns N_L, the number of distinct labels in the
// composition (used by the interpretability measure I(c), Equation 1).
func (c Composition) UniqueLabels() int {
	seen := make(map[pattern.Label]struct{}, len(c.Labels))
	for _, l := range c.Labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// Key returns a compact byte-string identity for the composition, usable
// as a map key. Two compositions are equal iff their keys are equal.
func (c Composition) Key() string {
	var b strings.Builder
	b.Grow(3 * len(c.Labels))
	for _, l := range c.Labels {
		b.WriteByte(byte(l.Var))
		b.WriteByte(byte(l.Alpha))
		b.WriteByte(byte(l.Beta))
	}
	return b.String()
}

// String renders the composition with generic interval codes; use Format
// for δ-aware names.
func (c Composition) String() string { return c.Format(pattern.Config{Delta: 2}) }

// Format renders the composition as "[PP[L,H], PN[-H,-L]]" using the
// configuration's interval names.
func (c Composition) Format(cfg pattern.Config) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, l := range c.Labels {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(cfg.LabelName(l))
	}
	b.WriteByte(']')
	return b.String()
}

// MatchedBy reports whether the composition occurs in the label sequence
// under the given mode (c ⊆o d).
func (c Composition) MatchedBy(labels []pattern.Label, mode MatchMode) bool {
	if len(c.Labels) == 0 {
		return true
	}
	if len(c.Labels) > len(labels) {
		return false
	}
	if mode == MatchSubsequence {
		return matchSubsequence(c.Labels, labels)
	}
	return matchContiguous(c.Labels, labels)
}

// matchContiguous reports whether needle occurs as a contiguous run in
// haystack.
func matchContiguous(needle, haystack []pattern.Label) bool {
	n := len(needle)
outer:
	for start := 0; start+n <= len(haystack); start++ {
		for j := 0; j < n; j++ {
			if haystack[start+j] != needle[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// matchSubsequence reports whether needle occurs in order (with gaps
// allowed) in haystack.
func matchSubsequence(needle, haystack []pattern.Label) bool {
	j := 0
	for _, l := range haystack {
		if l == needle[j] {
			j++
			if j == len(needle) {
				return true
			}
		}
	}
	return false
}
