// Package datasets provides the labeled-dataset container and CSV
// plumbing shared by the synthetic SGE and Yahoo Webscope S5 generators
// (see DESIGN.md §4 for the substitution rationale: both corpora used in
// the paper are proprietary or license-gated, so the experiments run on
// generators that reproduce their documented structure and anomaly
// types).
package datasets

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cdt/internal/timeseries"
)

// Dataset is a named collection of labeled series (the paper's datasets
// are collections of files: 25 calorie sensors, 67 Yahoo A1 files, ...).
type Dataset struct {
	Name   string
	Series []*timeseries.Series
}

// TotalPoints sums the lengths of all member series.
func (d *Dataset) TotalPoints() int {
	n := 0
	for _, s := range d.Series {
		n += s.Len()
	}
	return n
}

// TotalAnomalies sums the annotated anomalies of all member series.
func (d *Dataset) TotalAnomalies() int {
	n := 0
	for _, s := range d.Series {
		n += s.AnomalyCount()
	}
	return n
}

// AnomalyRate is the fraction of anomalous points.
func (d *Dataset) AnomalyRate() float64 {
	p := d.TotalPoints()
	if p == 0 {
		return 0
	}
	return float64(d.TotalAnomalies()) / float64(p)
}

// WriteCSV writes a series as "value,anomaly" rows with a header.
func WriteCSV(w io.Writer, s *timeseries.Series) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "value,is_anomaly"); err != nil {
		return err
	}
	for i, v := range s.Values {
		a := 0
		if s.Anomalies != nil && s.Anomalies[i] {
			a = 1
		}
		if _, err := fmt.Fprintf(bw, "%g,%d\n", v, a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses the WriteCSV format (a header line then "value,anomaly"
// rows; the anomaly column is optional). The header is optional too:
// the first line is one exactly when its first field is not a number,
// so a headerless file whose first reading is 1e-05 or NaN keeps it.
func ReadCSV(r io.Reader, name string) (*timeseries.Series, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var values []float64
	var anomalies []bool
	sawAnomaly := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			if line == 1 {
				continue // header: its first field names the column
			}
			return nil, fmt.Errorf("datasets: %s line %d: %w", name, line, err)
		}
		values = append(values, v)
		if len(parts) > 1 {
			sawAnomaly = true
			a, err := strconv.Atoi(strings.TrimSpace(parts[1]))
			if err != nil {
				return nil, fmt.Errorf("datasets: %s line %d: %w", name, line, err)
			}
			anomalies = append(anomalies, a != 0)
		} else {
			anomalies = append(anomalies, false)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("datasets: %s: no data rows", name)
	}
	if !sawAnomaly {
		return timeseries.New(name, values), nil
	}
	return timeseries.NewLabeled(name, values, anomalies), nil
}

// ReadMultiCSV parses a multivariate CSV: a required header naming one
// column per dimension (optionally ending in "is_anomaly" for a shared
// label column), then one row of float values per time point. It
// returns the aligned per-dimension series — named after their header
// columns — and the shared anomaly labels (nil when the file is
// unlabeled). Unlike ReadCSV, the header is not optional: without
// names, column identity across train and detect runs would be
// guesswork.
func ReadMultiCSV(r io.Reader, name string) ([]*timeseries.Series, []bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var cols []string
	hasAnomaly := false
	var values [][]float64
	var anomalies []bool
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if cols == nil {
			if !strings.ContainsAny(text, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ") {
				return nil, nil, fmt.Errorf("datasets: %s line %d: multivariate CSV requires a header naming each column", name, line)
			}
			for _, c := range parts {
				cols = append(cols, strings.TrimSpace(c))
			}
			if cols[len(cols)-1] == "is_anomaly" {
				hasAnomaly = true
				cols = cols[:len(cols)-1]
			}
			if len(cols) == 0 {
				return nil, nil, fmt.Errorf("datasets: %s: no value columns in header", name)
			}
			values = make([][]float64, len(cols))
			continue
		}
		want := len(cols)
		if hasAnomaly {
			want++
		}
		if len(parts) != want {
			return nil, nil, fmt.Errorf("datasets: %s line %d: %d fields, want %d", name, line, len(parts), want)
		}
		for i := range cols {
			v, err := strconv.ParseFloat(strings.TrimSpace(parts[i]), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("datasets: %s line %d: %w", name, line, err)
			}
			values[i] = append(values[i], v)
		}
		if hasAnomaly {
			a, err := strconv.Atoi(strings.TrimSpace(parts[len(parts)-1]))
			if err != nil {
				return nil, nil, fmt.Errorf("datasets: %s line %d: %w", name, line, err)
			}
			anomalies = append(anomalies, a != 0)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if cols == nil || len(values[0]) == 0 {
		return nil, nil, fmt.Errorf("datasets: %s: no data rows", name)
	}
	dims := make([]*timeseries.Series, len(cols))
	for i, c := range cols {
		dims[i] = timeseries.New(c, values[i])
	}
	if !hasAnomaly {
		return dims, nil, nil
	}
	return dims, anomalies, nil
}

// Downsample returns a copy of the dataset with every series downsampled
// by the given factor (the hour→day resampling of §4.2).
func (d *Dataset) Downsample(factor int, agg timeseries.Aggregator) (*Dataset, error) {
	out := &Dataset{Name: d.Name}
	for _, s := range d.Series {
		ds, err := timeseries.Downsample(s, factor, agg)
		if err != nil {
			return nil, fmt.Errorf("datasets: %s/%s: %w", d.Name, s.Name, err)
		}
		out.Series = append(out.Series, ds)
	}
	return out, nil
}

// Normalize min-max normalizes every series in place (§3.1) and returns
// the dataset for chaining.
func (d *Dataset) Normalize() (*Dataset, error) {
	for _, s := range d.Series {
		if _, err := s.Normalize(); err != nil {
			return nil, fmt.Errorf("datasets: %s/%s: %w", d.Name, s.Name, err)
		}
	}
	return d, nil
}
