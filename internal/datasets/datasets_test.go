package datasets

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cdt/internal/timeseries"
)

func TestCSVRoundTrip(t *testing.T) {
	s := timeseries.NewLabeled("s", []float64{1.5, -2, 3.25}, []bool{false, true, false})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "s")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("len = %d", got.Len())
	}
	for i := range s.Values {
		if got.Values[i] != s.Values[i] || got.Anomalies[i] != s.Anomalies[i] {
			t.Errorf("row %d: got (%v,%v), want (%v,%v)", i, got.Values[i], got.Anomalies[i], s.Values[i], s.Anomalies[i])
		}
	}
}

func TestReadCSVWithoutAnomalyColumn(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("value\n1\n2\n"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if got.Labeled() {
		t.Error("series without anomaly column should be unlabeled")
	}
	if got.Len() != 2 {
		t.Errorf("len = %d", got.Len())
	}
}

// Line 1 is a header exactly when its first field is not a number, so a
// headerless file keeps a first reading written in exponent form or as
// NaN, Inf.
func TestReadCSVHeaderDetection(t *testing.T) {
	for _, tc := range []struct {
		in      string
		values  []float64
		labeled bool
	}{
		{"1e-05,0\n0.2,0\n0.3,1\n", []float64{1e-05, 0.2, 0.3}, true},
		{"0.00001,0\n0.2,0\n0.3,1\n", []float64{1e-05, 0.2, 0.3}, true},
		{"nan,0\n1,0\n", []float64{math.NaN(), 1}, true},
		{"-Inf,1\n2,0\n", []float64{math.Inf(-1), 2}, true},
		{"1\n2\n", []float64{1, 2}, false},
		{"value,is_anomaly\n1e-05,0\n2,1\n", []float64{1e-05, 2}, true},
		{"value\n1\n2\n", []float64{1, 2}, false},
		{"e5,is_anomaly\n3,0\n", []float64{3}, true},
		{"\n1,0\n", []float64{1}, true},
	} {
		got, err := ReadCSV(strings.NewReader(tc.in), "x")
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if got.Labeled() != tc.labeled || got.Len() != len(tc.values) {
			t.Errorf("%q: %d values, labeled %v; want %d, %v", tc.in, got.Len(), got.Labeled(), len(tc.values), tc.labeled)
			continue
		}
		for i, want := range tc.values {
			if v := got.Values[i]; v != want && !(math.IsNaN(v) && math.IsNaN(want)) {
				t.Errorf("%q: value %d = %v, want %v", tc.in, i, v, want)
			}
		}
	}
	// A first line whose first field is a number is a reading, so a
	// junk flag after it is an error, not a header.
	if _, err := ReadCSV(strings.NewReader("1,x\n2,0\n"), "x"); err == nil {
		t.Error(`"1,x" on line 1 accepted as a header`)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "x"); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("value\nnot-a-number\n"), "x"); err == nil {
		t.Error("junk value accepted")
	}
	if _, err := ReadCSV(strings.NewReader("value,is_anomaly\n1,x\n"), "x"); err == nil {
		t.Error("junk anomaly flag accepted")
	}
}

func TestReadCSVSkipsBlankLines(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("value,is_anomaly\n1,0\n\n2,1\n"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || !got.Anomalies[1] {
		t.Errorf("got %+v", got)
	}
}

func TestDatasetTotals(t *testing.T) {
	d := &Dataset{Name: "d", Series: []*timeseries.Series{
		timeseries.NewLabeled("a", []float64{1, 2, 3}, []bool{true, false, false}),
		timeseries.NewLabeled("b", []float64{4, 5}, []bool{true, true}),
	}}
	if d.TotalPoints() != 5 {
		t.Errorf("points = %d", d.TotalPoints())
	}
	if d.TotalAnomalies() != 3 {
		t.Errorf("anomalies = %d", d.TotalAnomalies())
	}
	if d.AnomalyRate() != 0.6 {
		t.Errorf("rate = %v", d.AnomalyRate())
	}
	empty := &Dataset{}
	if empty.AnomalyRate() != 0 {
		t.Error("empty rate should be 0")
	}
}

func TestDatasetDownsample(t *testing.T) {
	d := &Dataset{Name: "d", Series: []*timeseries.Series{
		timeseries.NewLabeled("a", []float64{1, 3, 5, 7}, []bool{false, true, false, false}),
	}}
	out, err := d.Downsample(2, timeseries.Mean)
	if err != nil {
		t.Fatal(err)
	}
	if out.Series[0].Len() != 2 || out.Series[0].Values[0] != 2 {
		t.Errorf("downsampled = %+v", out.Series[0])
	}
	if !out.Series[0].Anomalies[0] {
		t.Error("anomaly lost in downsampling")
	}
	if _, err := d.Downsample(0, timeseries.Mean); err == nil {
		t.Error("factor 0 accepted")
	}
}

func TestDatasetNormalize(t *testing.T) {
	d := &Dataset{Name: "d", Series: []*timeseries.Series{
		timeseries.New("a", []float64{0, 5, 10}),
	}}
	if _, err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	if d.Series[0].Values[1] != 0.5 {
		t.Errorf("normalize = %v", d.Series[0].Values)
	}
	bad := &Dataset{Series: []*timeseries.Series{timeseries.New("e", nil)}}
	if _, err := bad.Normalize(); err == nil {
		t.Error("empty series accepted")
	}
}
