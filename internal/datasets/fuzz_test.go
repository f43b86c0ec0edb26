package datasets

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary text to the CSV reader: it must never
// panic, anything it accepts must survive a write/read round trip, and
// normalizing it must either fail or yield finite values in [0,1].
func FuzzReadCSV(f *testing.F) {
	f.Add("value,is_anomaly\n1,0\n2,1\n")
	f.Add("value\n1\n")
	f.Add("")
	f.Add("1,2,3\n")
	f.Add("nan,0\n")
	f.Add("1e308,1\n-1e308,0\n")
	f.Add("value,is_anomaly\nnan,0\n1,0\n")
	f.Add("value,is_anomaly\n1e308,1\n-1e308,0\n")
	// Headerless files whose first reading holds a letter.
	f.Add("1e-05,0\n0.2,0\n0.3,1")
	f.Add("nan,0\n1,0")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ReadCSV(strings.NewReader(input), "fuzz")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, s); err != nil {
			t.Fatalf("accepted series failed to write: %v", err)
		}
		back, err := ReadCSV(&buf, "fuzz2")
		if err != nil {
			t.Fatalf("written series failed to read: %v", err)
		}
		if back.Len() != s.Len() {
			t.Fatalf("round trip changed length %d -> %d", s.Len(), back.Len())
		}
		n := s.Clone()
		if _, err := n.Normalize(); err != nil {
			return
		}
		for i, v := range n.Values {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("normalized value %d = %v, want within [0,1]", i, v)
			}
		}
	})
}
