package experiments

import (
	"strings"
	"testing"

	cdt "cdt"
	"cdt/internal/c45"
)

// fastConfig keeps harness tests quick: tiny Bayesian-optimization
// budgets over the shared laptop-scale datasets.
func fastConfig() Config {
	return Config{Seed: 7, BOInit: 2, BOIters: 2}
}

func TestPrepareAllDatasets(t *testing.T) {
	prepared, err := PrepareAll(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(prepared) != len(DatasetNames) {
		t.Fatalf("prepared %d datasets", len(prepared))
	}
	for _, p := range prepared {
		if len(p.Train) == 0 || len(p.Validation) == 0 || len(p.Test) == 0 {
			t.Errorf("%s: empty split", p.Name)
		}
		if len(p.Series) != len(p.Train) {
			t.Errorf("%s: %d series but %d train segments", p.Name, len(p.Series), len(p.Train))
		}
		// Every dataset must carry anomalies in every split segment pool.
		for segName, seg := range map[string][]*cdt.Series{"train": p.Train, "test": p.Test} {
			anoms := 0
			for _, s := range seg {
				anoms += s.AnomalyCount()
			}
			if anoms == 0 {
				t.Errorf("%s: no anomalies in %s", p.Name, segName)
			}
		}
		// Preprocessing normalizes everything into [0,1].
		for _, s := range p.Series {
			min, max, err := s.MinMax()
			if err != nil {
				t.Fatal(err)
			}
			if min < 0 || max > 1 {
				t.Errorf("%s/%s not normalized: [%v,%v]", p.Name, s.Name, min, max)
			}
		}
		if c := p.Contamination(); c <= 0 || c >= 0.5 {
			t.Errorf("%s: contamination %v out of (0,0.5)", p.Name, c)
		}
	}
}

func TestPrepareUnknownDataset(t *testing.T) {
	if _, err := Prepare("nope", fastConfig()); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestPrepareDeterministic(t *testing.T) {
	a, err := Prepare("Yahoo_A2", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Prepare("Yahoo_A2", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series {
		for j := range a.Series[i].Values {
			if a.Series[i].Values[j] != b.Series[i].Values[j] {
				t.Fatal("same config, different data")
			}
		}
	}
}

func TestSuiteCachesTuning(t *testing.T) {
	s := NewSuite(fastConfig())
	first, err := s.Tuned("SGE_Calorie", cdt.ObjectiveF1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Tuned("SGE_Calorie", cdt.ObjectiveF1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Best.Omega != second.Best.Omega || first.Best.Delta != second.Best.Delta {
		t.Error("cache returned a different result")
	}
}

func TestFitTunedProducesWorkingModel(t *testing.T) {
	s := NewSuite(fastConfig())
	model, prep, err := s.FitTuned("SGE_Calorie", cdt.ObjectiveF1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := model.Evaluate(prep.Test)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Confusion.Total() == 0 {
		t.Error("no test windows evaluated")
	}
	if model.NumRules() == 0 {
		t.Error("tuned model has no rules")
	}
}

func TestBaselineF1AllMethods(t *testing.T) {
	s := NewSuite(fastConfig())
	p, err := s.Dataset("Yahoo_A2")
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"PBAD", "PAV", "MP"} {
		f1, err := s.baselineF1(p, method)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if f1 < 0 || f1 > 1 {
			t.Errorf("%s F1 = %v", method, f1)
		}
	}
	if _, err := s.baselineF1(p, "nope"); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestWindowHelpers(t *testing.T) {
	starts := windowStarts(20, 12, 6)
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 6 {
		t.Errorf("starts = %v", starts)
	}
	if got := windowStarts(5, 12, 6); got != nil {
		t.Errorf("short series starts = %v", got)
	}
	if rate([]bool{true, false, false, true}) != 0.5 {
		t.Error("rate wrong")
	}
	if rate(nil) != 0 {
		t.Error("empty rate wrong")
	}
}

func TestNominalDatasetShape(t *testing.T) {
	s := NewSuite(fastConfig())
	p, err := s.Dataset("Yahoo_A2")
	if err != nil {
		t.Fatal(err)
	}
	opts := cdt.Options{Omega: 4, Delta: 2}
	ds, nObs, err := NominalDatasetForDebug(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Instances) != nObs {
		t.Errorf("instances %d != observations %d", len(ds.Instances), nObs)
	}
	if len(ds.AttrNames) != 4 {
		t.Errorf("attrs = %d, want omega", len(ds.AttrNames))
	}
	if ds.AttrCard[0] != 25 { // (2·2+1)²
		t.Errorf("cardinality = %d, want 25", ds.AttrCard[0])
	}
	pos := 0
	for _, inst := range ds.Instances {
		if inst.Class == 1 {
			pos++
		}
	}
	if pos == 0 || pos == len(ds.Instances) {
		t.Errorf("degenerate class distribution: %d/%d", pos, len(ds.Instances))
	}
}

func TestEvaluateRuleList(t *testing.T) {
	// Two rules: one anomaly rule matching attr0==1 and one normal rule
	// matching attr0==0; default normal.
	rules := []genericRule{
		{conds: 1, uniq: 1, class: 1, matches: func(a []int) bool { return a[0] == 1 }},
		{conds: 1, uniq: 1, class: 0, matches: func(a []int) bool { return a[0] == 0 }},
	}
	test := nominalTest([][2]int{{1, 1}, {1, 1}, {0, 0}, {0, 0}, {1, 0}})
	f1, q := evaluateRuleList(rules, 0, test, 5, 25)
	// attr0==1 instances: 2 true anomalies + 1 false positive.
	if f1 <= 0.7 || f1 > 1 {
		t.Errorf("F1 = %v", f1)
	}
	if q <= 0 || q > 1 {
		t.Errorf("Q = %v", q)
	}
}

func TestEvaluateRuleListFirstMatchWins(t *testing.T) {
	// A normal rule shadowing a later anomaly rule: instances matching
	// both must be classified normal.
	rules := []genericRule{
		{conds: 1, uniq: 1, class: 0, matches: func(a []int) bool { return true }},
		{conds: 1, uniq: 1, class: 1, matches: func(a []int) bool { return true }},
	}
	test := nominalTest([][2]int{{1, 1}, {0, 0}})
	f1, q := evaluateRuleList(rules, 1, test, 5, 25)
	if f1 != 0 {
		t.Errorf("F1 = %v, want 0 (anomaly rule shadowed)", f1)
	}
	if q != 0 {
		t.Errorf("Q = %v, want 0", q)
	}
}

// nominalTest builds a tiny one-attribute dataset from (attr, class)
// pairs.
func nominalTest(rows [][2]int) *c45.Dataset {
	ds := &c45.Dataset{AttrNames: []string{"a"}, AttrCard: []int{2}, NumClasses: 2}
	for _, r := range rows {
		ds.Instances = append(ds.Instances, c45.Instance{Attrs: []int{r[0]}, Class: r[1]})
	}
	return ds
}

func TestFormatters(t *testing.T) {
	t2 := FormatTable2([]Table2Row{{Dataset: "D", F1Omega: 5, F1Delta: 2, FHOmega: 7, FHDelta: 1}})
	if !strings.Contains(t2, "Table 2") || !strings.Contains(t2, "D") {
		t.Error("Table 2 format broken")
	}
	t3 := FormatTable3([]Table3Row{{Dataset: "D", F1: [4]float64{0.9, 0.5, 0.6, 0.7}}})
	if !strings.Contains(t3, "Average") || !strings.Contains(t3, "0.90") {
		t.Error("Table 3 format broken")
	}
	t4 := FormatTable4([]Table4Row{{Dataset: "D", F1: [3]float64{0.9, 0.5, 0.6}}})
	if !strings.Contains(t4, "paper avg") {
		t.Error("Table 4 format broken")
	}
	f3 := FormatFigure3([]Figure3Row{{Dataset: "D", NumRules: [3]int{3, 10, 5}}})
	if !strings.Contains(f3, "CDT") || !strings.Contains(f3, "█") {
		t.Error("Figure 3 format broken")
	}
	t5 := FormatTable5([]Table5Rule{{Text: "IF x THEN anomaly", Sketch: "*", Description: "peak"}})
	if !strings.Contains(t5, "IF x THEN anomaly") || !strings.Contains(t5, "peak") {
		t.Error("Table 5 format broken")
	}
	if !strings.Contains(Figure1(), "PP[L,H]") {
		t.Error("Figure 1 missing pattern names")
	}
}

func TestFormatTableAlignment(t *testing.T) {
	out := FormatTable([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("missing separator")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.BOInit != 5 || cfg.BOIters != 15 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestPaperConstantsCoverAllDatasets(t *testing.T) {
	for _, name := range DatasetNames {
		if _, ok := PaperTable2[name]; !ok {
			t.Errorf("PaperTable2 missing %s", name)
		}
		if _, ok := PaperTable3[name]; !ok {
			t.Errorf("PaperTable3 missing %s", name)
		}
		if _, ok := PaperTable4[name]; !ok {
			t.Errorf("PaperTable4 missing %s", name)
		}
	}
}

func TestRuleLearnersCV(t *testing.T) {
	s := NewSuite(fastConfig())
	results, err := s.RuleLearnersCV("SGE_Calorie", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Method != "PART" && r.Method != "JRip" {
			t.Errorf("unexpected method %q", r.Method)
		}
		if r.F1 < 0 || r.F1 > 1 || r.Q < 0 || r.Q > 1 {
			t.Errorf("%s: scores out of range: %+v", r.Method, r)
		}
		if r.FH > r.F1+1e-9 {
			t.Errorf("%s: FH %v exceeds F1 %v", r.Method, r.FH, r.F1)
		}
	}
}

func TestSubsetView(t *testing.T) {
	ds := nominalTest([][2]int{{0, 0}, {1, 1}, {0, 1}})
	sub := subset(ds, []int{2, 0})
	if len(sub.Instances) != 2 || sub.Instances[0].Class != 1 || sub.Instances[1].Class != 0 {
		t.Errorf("subset = %+v", sub.Instances)
	}
	if sub.NumClasses != 2 || len(sub.AttrNames) != 1 {
		t.Error("metadata lost")
	}
}

func TestCompareOptimizers(t *testing.T) {
	s := NewSuite(fastConfig())
	rows, err := s.CompareOptimizers("SGE_Calorie", 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d strategies", len(rows))
	}
	byName := map[string]OptimizerComparison{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	// Grid search evaluates the whole 13×6 grid and is therefore an
	// upper bound on the budgeted strategies.
	if byName["grid"].Evaluations != 13*6 {
		t.Errorf("grid evaluated %d cells", byName["grid"].Evaluations)
	}
	if byName["bayesian"].Evaluations > 6 || byName["random"].Evaluations != 6 {
		t.Errorf("budgets violated: %+v", rows)
	}
	for _, r := range rows {
		if r.BestScore < 0 || r.BestScore > 1 {
			t.Errorf("%s best score %v", r.Strategy, r.BestScore)
		}
		if byName["grid"].BestScore+1e-9 < r.BestScore {
			t.Errorf("%s beat exhaustive grid search", r.Strategy)
		}
	}
	out := FormatOptimizerComparison("SGE_Calorie", rows)
	if !strings.Contains(out, "bayesian") || !strings.Contains(out, "grid") {
		t.Error("format broken")
	}
}

func TestWriteMarkdownReport(t *testing.T) {
	s := NewSuite(fastConfig())
	var buf strings.Builder
	if err := s.WriteMarkdownReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# CDT reproduction report",
		"## Table 2", "## Table 3", "## Table 4",
		"## Figure 3", "## Table 5", "## Figure 2",
		"| Dataset |", "| --- |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestTable3AcrossSeeds(t *testing.T) {
	rows, err := Table3AcrossSeeds(fastConfig(), []int64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table3Methods) {
		t.Fatalf("got %d methods", len(rows))
	}
	for _, r := range rows {
		if r.Mean < 0 || r.Mean > 1 {
			t.Errorf("%s mean = %v", r.Method, r.Mean)
		}
		if r.SD < 0 {
			t.Errorf("%s sd = %v", r.Method, r.SD)
		}
	}
	if _, err := Table3AcrossSeeds(fastConfig(), nil); err == nil {
		t.Error("no seeds accepted")
	}
}

func TestMeanSD(t *testing.T) {
	mean, sd := meanSD([]float64{1, 3})
	if mean != 2 || sd == 0 {
		t.Errorf("meanSD = %v, %v", mean, sd)
	}
	mean, sd = meanSD([]float64{5})
	if mean != 5 || sd != 0 {
		t.Errorf("single-element meanSD = %v, %v", mean, sd)
	}
}
