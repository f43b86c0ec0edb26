package experiments

import (
	"fmt"
	"math"
	"strings"

	cdt "cdt"
	"cdt/internal/evalmetrics"
	"cdt/internal/matrixprofile"
	"cdt/internal/pav"
	"cdt/internal/pbad"
	"cdt/internal/timeseries"
)

// Table3Methods lists the §4.2 comparison's methods in column order.
var Table3Methods = []string{"CDT", "PBAD", "PAV", "MP"}

// baselineWindowLen and baselineStep are the recommended settings the
// paper uses for all pattern-based baselines (§4.2).
const (
	baselineWindowLen = 12
	baselineStep      = 6
)

// Table3Row is one dataset's F1 per method (paper Table 3).
type Table3Row struct {
	Dataset string
	// F1 holds scores in Table3Methods order.
	F1 [4]float64
	// Paper holds the paper's scores in the same order.
	Paper [4]float64
}

// Table3 compares CDT against the pattern-based baselines. CDT follows
// the supervised protocol of §4.1 (train on 60%+20%, F1-optimal
// hyper-parameters, scored on the 20% test windows); the unsupervised
// baselines follow §4.2 (model on the full series, windows of length 12
// step 6, scores binarized at the contamination quantile).
func (s *Suite) Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, name := range DatasetNames {
		row := Table3Row{Dataset: name}
		if p, ok := PaperTable3[name]; ok {
			row.Paper = p
		}

		model, prep, err := s.FitTuned(name, cdt.ObjectiveF1)
		if err != nil {
			return nil, err
		}
		testCorpus, err := prep.TestCorpus()
		if err != nil {
			return nil, err
		}
		rep, err := model.EvaluateCorpus(testCorpus)
		if err != nil {
			return nil, err
		}
		row.F1[0] = rep.F1

		for mi, method := range []string{"PBAD", "PAV", "MP"} {
			f1, err := s.baselineF1(prep, method)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s on %s: %w", method, name, err)
			}
			row.F1[mi+1] = f1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// baselineF1 scores one unsupervised baseline on a dataset with the
// shared window protocol.
func (s *Suite) baselineF1(p *Prepared, method string) (float64, error) {
	var scores []float64
	var truth []bool
	for _, series := range p.Series {
		starts := windowStarts(series.Len(), baselineWindowLen, baselineStep)
		if len(starts) == 0 {
			continue
		}
		var wscores []float64
		switch method {
		case "PBAD":
			windows, err := pbad.Detect(series.Values, pbad.Options{
				WindowLen: baselineWindowLen,
				Step:      baselineStep,
			})
			if err != nil {
				return 0, err
			}
			wscores = make([]float64, len(windows))
			for i, w := range windows {
				wscores[i] = w.Score
			}
		case "PAV":
			points, err := pav.Scores(series.Values, pav.Options{})
			if err != nil {
				return 0, err
			}
			wscores = pav.WindowScores(points, starts, baselineWindowLen)
		case "MP":
			m := baselineWindowLen
			if series.Len() < 2*m {
				continue
			}
			profile, err := matrixprofile.Compute(series.Values, m)
			if err != nil {
				return 0, err
			}
			wscores = profile.WindowScores(starts, baselineWindowLen)
		default:
			return 0, fmt.Errorf("unknown baseline %q", method)
		}
		if len(wscores) != len(starts) {
			return 0, fmt.Errorf("%s produced %d scores for %d windows", method, len(wscores), len(starts))
		}
		scores = append(scores, wscores...)
		truth = append(truth, windowTruth(series, starts, baselineWindowLen)...)
	}
	if len(scores) == 0 {
		return 0, fmt.Errorf("no windows scored")
	}
	contamination := rate(truth)
	predicted := evalmetrics.BinarizeTop(scores, contamination)
	return evalmetrics.FromBools(predicted, truth).F1(), nil
}

// windowStarts enumerates fixed-stride window starts.
func windowStarts(n, windowLen, step int) []int {
	var out []int
	for start := 0; start+windowLen <= n; start += step {
		out = append(out, start)
	}
	return out
}

// windowTruth flags windows containing at least one annotated anomaly.
func windowTruth(s *timeseries.Series, starts []int, windowLen int) []bool {
	out := make([]bool, len(starts))
	for wi, start := range starts {
		for i := start; i < start+windowLen && i < s.Len(); i++ {
			if s.Anomalies[i] {
				out[wi] = true
				break
			}
		}
	}
	return out
}

func rate(flags []bool) float64 {
	if len(flags) == 0 {
		return 0
	}
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return float64(n) / float64(len(flags))
}

// FormatTable3 renders Table 3 with averages, ranks, and paper values.
func FormatTable3(rows []Table3Row) string {
	header := []string{"Dataset"}
	for _, m := range Table3Methods {
		header = append(header, m, "paper")
	}
	var body [][]string
	var sums [4]float64
	scores := make([][]float64, len(rows))
	for d, r := range rows {
		line := []string{r.Dataset}
		for i := range Table3Methods {
			line = append(line, fmt.Sprintf("%.2f", r.F1[i]), fmt.Sprintf("%.2f", r.Paper[i]))
			sums[i] += r.F1[i]
		}
		scores[d] = rows[d].F1[:]
		body = append(body, line)
	}
	avg := []string{"Average"}
	for i := range Table3Methods {
		avg = append(avg, fmt.Sprintf("%.2f", sums[i]/float64(len(rows))), fmt.Sprintf("%.2f", PaperTable3Average[i]))
	}
	body = append(body, avg)
	var b strings.Builder
	b.WriteString("Table 3: anomaly-detection F1, CDT vs pattern-based baselines\n")
	b.WriteString(FormatTable(header, body))
	b.WriteString("Average rank: ")
	for i, rank := range evalmetrics.AverageRanks(scores) {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.2f", Table3Methods[i], rank)
	}
	b.WriteString(" (paper: CDT best overall, winning 5/6 datasets)\n")
	return b.String()
}

// Table3Averaged reruns Table 3 across several seeds and reports
// per-method mean and standard deviation of the dataset-averaged F1 —
// the robustness view behind the paper's "our method is more stable"
// claim. Each seed regenerates the synthetic datasets and re-tunes.
type Table3Averaged struct {
	Method   string
	Mean, SD float64
}

// Table3AcrossSeeds runs the Table 3 pipeline once per seed.
func Table3AcrossSeeds(cfg Config, seeds []int64) ([]Table3Averaged, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: no seeds")
	}
	perMethod := make([][]float64, len(Table3Methods))
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		s := NewSuite(c)
		rows, err := s.Table3()
		if err != nil {
			return nil, err
		}
		for mi := range Table3Methods {
			sum := 0.0
			for _, r := range rows {
				sum += r.F1[mi]
			}
			perMethod[mi] = append(perMethod[mi], sum/float64(len(rows)))
		}
	}
	out := make([]Table3Averaged, len(Table3Methods))
	for mi, m := range Table3Methods {
		mean, sd := meanSD(perMethod[mi])
		out[mi] = Table3Averaged{Method: m, Mean: mean, SD: sd}
	}
	return out, nil
}

func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}
