package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	cdt "cdt"
)

// Suite runs the paper's experiments with shared, cached state: prepared
// datasets and tuned hyper-parameters are computed once and reused across
// tables (Table 3 reuses Table 2's F1 column, Table 4 and Figure 3 its
// F(h) column, exactly as in §4).
type Suite struct {
	Config Config

	mu       sync.Mutex
	prepared map[string]*Prepared
	tuned    map[tuneKey]cdt.OptimizeResult
	table4   []Table4Row
}

type tuneKey struct {
	dataset   string
	objective cdt.Objective
}

// NewSuite creates an experiment suite.
func NewSuite(cfg Config) *Suite {
	return &Suite{
		Config:   cfg.withDefaults(),
		prepared: make(map[string]*Prepared),
		tuned:    make(map[tuneKey]cdt.OptimizeResult),
	}
}

// Dataset returns (and caches) a prepared dataset.
func (s *Suite) Dataset(name string) (*Prepared, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.prepared[name]; ok {
		return p, nil
	}
	p, err := Prepare(name, s.Config)
	if err != nil {
		return nil, err
	}
	s.prepared[name] = p
	return p, nil
}

// Tuned returns (and caches) the Bayesian-optimization result for a
// dataset and objective (§4.1's protocol: optimize on train/validation).
func (s *Suite) Tuned(name string, obj cdt.Objective) (cdt.OptimizeResult, error) {
	s.mu.Lock()
	if r, ok := s.tuned[tuneKey{name, obj}]; ok {
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()
	p, err := s.Dataset(name)
	if err != nil {
		return cdt.OptimizeResult{}, err
	}
	// Both objectives tune over the same splits, so the searches go through
	// the dataset's shared corpora: the F(h) search re-uses every labeling
	// and window set the F1 search already computed.
	trainCorpus, err := p.TrainCorpus()
	if err != nil {
		return cdt.OptimizeResult{}, err
	}
	valCorpus, err := p.ValidationCorpus()
	if err != nil {
		return cdt.OptimizeResult{}, err
	}
	// With Progress set, stream one line per trial so a paper-scale search
	// (minutes per dataset) shows where the budget goes, and close with a
	// cache-stats summary quantifying how much the shared corpus saved.
	var trace func(cdt.OptimizeTrial)
	if w := s.Config.Progress; w != nil {
		trace = func(t cdt.OptimizeTrial) {
			fmt.Fprintf(w, "tune dataset=%s objective=%s trial=%d omega=%d delta=%d score=%.4f elapsed=%s\n",
				name, obj, t.Evaluation, t.Omega, t.Delta, t.Score, t.Elapsed.Round(time.Millisecond))
		}
	}
	res, err := cdt.OptimizeCorpus(trainCorpus, valCorpus, obj, cdt.OptimizeOptions{
		InitPoints: s.Config.BOInit,
		Iterations: s.Config.BOIters,
		Seed:       s.Config.Seed + int64(obj) + int64(len(name)),
		// Candidate compositions are capped at 4 labels in the harness:
		// the paper's reported rules use compositions of 1-2 labels, and
		// the cap keeps the full hyper-parameter sweep tractable (the
		// ablation bench quantifies its effect).
		Base:  cdt.Options{MaxCompositionLen: 4},
		Trace: trace,
	})
	if err != nil {
		return cdt.OptimizeResult{}, fmt.Errorf("experiments: tuning %s for %s: %w", name, obj, err)
	}
	if w := s.Config.Progress; w != nil {
		st := trainCorpus.Stats()
		fmt.Fprintf(w, "tune dataset=%s objective=%s done evaluations=%d best_omega=%d best_delta=%d best_score=%.4f "+
			"cache label_hits=%d label_misses=%d window_hits=%d window_misses=%d\n",
			name, obj, res.Evaluations, res.Best.Omega, res.Best.Delta, res.BestScore,
			st.LabelHits, st.LabelMisses, st.WindowHits, st.WindowMisses)
	}
	s.mu.Lock()
	s.tuned[tuneKey{name, obj}] = res
	s.mu.Unlock()
	return res, nil
}

// FitTuned trains the final CDT for a dataset with the hyper-parameters
// selected for the given objective, refitting on train+validation.
func (s *Suite) FitTuned(name string, obj cdt.Objective) (*cdt.Model, *Prepared, error) {
	p, err := s.Dataset(name)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.Tuned(name, obj)
	if err != nil {
		return nil, nil, err
	}
	// Refit over the shared train+validation corpus: both objectives refit
	// the same pool, so the second refit's preprocessing is fully cached.
	tv, err := p.TrainValCorpus()
	if err != nil {
		return nil, nil, err
	}
	model, err := tv.Fit(res.Best)
	if err != nil {
		return nil, nil, err
	}
	return model, p, nil
}

// FormatTable renders rows as a fixed-width table for terminal output.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
