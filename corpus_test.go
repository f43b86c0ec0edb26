package cdt

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cdt/internal/core"
	"cdt/internal/engine"
	"cdt/internal/evalmetrics"
	"cdt/internal/rules"
)

// fitFromScratch reproduces the pre-corpus training pipeline verbatim —
// per-series normalize → label → window, pooled, then tree induction and
// rule extraction — as the golden reference the cached Corpus pipeline
// must match byte for byte.
func fitFromScratch(train []*Series, opts Options) (*Model, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("cdt: no training series")
	}
	pcfg := opts.patternConfig()
	var pooled []core.Observation
	for _, s := range train {
		obs, err := observations(s, pcfg, opts.Omega)
		if err != nil {
			return nil, err
		}
		pooled = append(pooled, obs...)
	}
	tree, err := core.Build(pooled, opts.coreOptions())
	if err != nil {
		return nil, err
	}
	m := &Model{Opts: opts, tree: tree, pcfg: pcfg}
	m.raw = rules.FromTree(tree, opts.LeafPolicy)
	m.finalizeRules()
	return m, nil
}

func saveBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return b.Bytes()
}

// newBoundedCorpus is NewCorpus with the labeling and window caches
// bounded at limit entries, so a few configurations force eviction.
func newBoundedCorpus(t *testing.T, series []*Series, limit int) *Corpus {
	t.Helper()
	c, err := NewCorpus(series)
	if err != nil {
		t.Fatal(err)
	}
	c.labels.limit, c.windows.limit = limit, limit
	return c
}

// corpusTestSeries is the shared two-series training set: different
// lengths, different spike layouts, raw (unnormalized) magnitudes.
func corpusTestSeries() []*Series {
	return []*Series{
		spikySeries("a", 400, []int{50, 120, 200, 310}, 1),
		spikySeries("b", 300, []int{40, 150, 260}, 2),
	}
}

// TestCorpusFitGoldenEquivalence fits over a grid of (ω, δ) three ways —
// the from-scratch reference pipeline, the cached corpus (twice, so the
// second fit is served entirely from the cache), and the package-level
// Fit wrapper — and requires byte-identical Save artifacts and identical
// rendered rules.
func TestCorpusFitGoldenEquivalence(t *testing.T) {
	train := corpusTestSeries()
	c, err := NewCorpus(train)
	if err != nil {
		t.Fatal(err)
	}
	for _, omega := range []int{3, 5, 8} {
		for _, delta := range []int{1, 2, 4} {
			opts := Options{Omega: omega, Delta: delta}
			name := fmt.Sprintf("omega=%d/delta=%d", omega, delta)
			want, err := fitFromScratch(train, opts)
			if err != nil {
				t.Fatalf("%s: reference pipeline: %v", name, err)
			}
			wantSave := saveBytes(t, want)
			wantRules := want.RuleText()

			for pass := 0; pass < 2; pass++ { // pass 1 hits the warm cache
				got, err := c.Fit(opts)
				if err != nil {
					t.Fatalf("%s pass %d: corpus fit: %v", name, pass, err)
				}
				if gotSave := saveBytes(t, got); !bytes.Equal(gotSave, wantSave) {
					t.Errorf("%s pass %d: Save artifact differs from reference pipeline", name, pass)
				}
				if gotRules := got.RuleText(); gotRules != wantRules {
					t.Errorf("%s pass %d: RuleText differs:\ngot:\n%s\nwant:\n%s", name, pass, gotRules, wantRules)
				}
			}

			viaFit, err := Fit(train, opts)
			if err != nil {
				t.Fatalf("%s: Fit wrapper: %v", name, err)
			}
			if !bytes.Equal(saveBytes(t, viaFit), wantSave) {
				t.Errorf("%s: Fit wrapper Save artifact differs from reference pipeline", name)
			}
		}
	}
}

// TestCorpusObservationsMatchObservationsOf checks the cached pooled
// windows are exactly the per-series ObservationsOf pools concatenated in
// series order.
func TestCorpusObservationsMatchObservationsOf(t *testing.T) {
	train := corpusTestSeries()
	c, err := NewCorpus(train)
	if err != nil {
		t.Fatal(err)
	}
	for _, omega := range []int{3, 7} {
		for _, delta := range []int{1, 3} {
			opts := Options{Omega: omega, Delta: delta}
			var want []Observation
			for _, s := range train {
				obs, err := ObservationsOf(s, opts)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, obs...)
			}
			got, err := c.Observations(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("omega=%d delta=%d: pooled observations differ", omega, delta)
			}
		}
	}
}

// TestCorpusEvictionStaysBoundedAndCorrect drives a tiny 2-entry cache
// across more configurations than it can hold: the maps must stay within
// bounds and every (evicted, recomputed) result must still match a fresh
// uncached corpus.
func TestCorpusEvictionStaysBoundedAndCorrect(t *testing.T) {
	train := corpusTestSeries()
	c := newBoundedCorpus(t, train, 2)
	configs := []Options{
		{Omega: 3, Delta: 1},
		{Omega: 4, Delta: 2},
		{Omega: 5, Delta: 3},
		{Omega: 6, Delta: 4},
		{Omega: 3, Delta: 1}, // evicted by now — must recompute correctly
	}
	for _, opts := range configs {
		got, err := c.Observations(opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewCorpus(train)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Observations(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("omega=%d delta=%d: observations after eviction differ", opts.Omega, opts.Delta)
		}
		c.labels.mu.RLock()
		nl := len(c.labels.entries)
		c.labels.mu.RUnlock()
		c.windows.mu.RLock()
		nw := len(c.windows.entries)
		c.windows.mu.RUnlock()
		if nl > 2 || nw > 2 {
			t.Fatalf("cache exceeded bound: %d labelings, %d window pools", nl, nw)
		}
	}
}

// TestCorpusErrorsAreCachedPerConfig checks a failing configuration (ω
// larger than a series' label count) reports the same error through the
// cache, repeatedly, without poisoning other entries.
func TestCorpusErrorsAreCachedPerConfig(t *testing.T) {
	short := spikySeries("short", 10, []int{5}, 3)
	c, err := NewCorpus([]*Series{short})
	if err != nil {
		t.Fatal(err)
	}
	bad := Options{Omega: 9, Delta: 1} // 10 points → 8 labels
	for i := 0; i < 2; i++ {
		if _, err := c.Observations(bad); err == nil {
			t.Fatalf("attempt %d: expected omega-exceeds error", i)
		}
	}
	if _, err := c.Observations(Options{Omega: 3, Delta: 1}); err != nil {
		t.Fatalf("good configuration failed after cached error: %v", err)
	}
}

func TestNewCorpusValidation(t *testing.T) {
	if _, err := NewCorpus(nil); err == nil {
		t.Error("expected error for empty corpus")
	}
}

// TestCorpusConcurrentHammer pounds one small-cache corpus from many
// goroutines over an overlapping (ω, δ) grid — concurrent first-misses,
// warm hits, and evictions all interleave — and checks under -race that
// every fit still produces the exact expected rules.
func TestCorpusConcurrentHammer(t *testing.T) {
	train := corpusTestSeries()
	grid := []Options{
		{Omega: 3, Delta: 1},
		{Omega: 3, Delta: 2},
		{Omega: 5, Delta: 1},
		{Omega: 5, Delta: 2},
		{Omega: 7, Delta: 3},
		{Omega: 8, Delta: 4},
	}
	// Golden rules per configuration, computed sequentially up front.
	want := make([]string, len(grid))
	for i, opts := range grid {
		m, err := fitFromScratch(train, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m.RuleText()
	}

	// Cache bound 3 < 6 grid cells forces constant eviction under load.
	c := newBoundedCorpus(t, train, 3)
	workers := 8
	iters := 10
	if testing.Short() {
		workers, iters = 4, 3
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				gi := (w + it) % len(grid)
				opts := grid[gi]
				if (w+it)%3 == 0 {
					// Mix plain window reads in with full fits.
					if _, err := c.Observations(opts); err != nil {
						errs <- fmt.Errorf("worker %d: observations %+v: %w", w, opts, err)
						return
					}
					continue
				}
				m, err := c.Fit(opts)
				if err != nil {
					errs <- fmt.Errorf("worker %d: fit %+v: %w", w, opts, err)
					return
				}
				if got := m.RuleText(); got != want[gi] {
					errs <- fmt.Errorf("worker %d: rules for %+v diverged under concurrency", w, opts)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOptimizeCorpusMatchesOptimize checks the corpus-backed search is
// bit-identical to the wrapper, and that parallel initial-design
// evaluation changes nothing but wall-clock.
func TestOptimizeCorpusMatchesOptimize(t *testing.T) {
	train := []*Series{spikySeries("train", 300, []int{50, 120, 200}, 1)}
	val := []*Series{spikySeries("val", 300, []int{80, 170, 240}, 2)}
	base := OptimizeOptions{
		OmegaMin: 3, OmegaMax: 9,
		DeltaMin: 1, DeltaMax: 4,
		InitPoints: 4, Iterations: 4,
		Seed: 7,
	}

	ref, err := Optimize(train, val, ObjectiveF1, base)
	if err != nil {
		t.Fatal(err)
	}
	// Elapsed is wall-clock observability payload — the only field allowed
	// to differ between bit-identical runs. Drop it before comparing.
	dropElapsed := func(r OptimizeResult) OptimizeResult {
		r.History = append([]OptimizeSample(nil), r.History...)
		for i := range r.History {
			r.History[i].Elapsed = 0
		}
		return r
	}
	ref = dropElapsed(ref)

	trainC, err := NewCorpus(train)
	if err != nil {
		t.Fatal(err)
	}
	valC, err := NewCorpus(val)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{-1, 1, 4} {
		opts := base
		opts.Parallelism = par
		got, err := OptimizeCorpus(trainC, valC, ObjectiveF1, opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if got = dropElapsed(got); !reflect.DeepEqual(got, ref) {
			t.Errorf("parallelism %d: result diverged from Optimize wrapper:\ngot  %+v\nwant %+v", par, got, ref)
		}
	}

	if _, err := OptimizeCorpus(nil, valC, ObjectiveF1, base); err == nil {
		t.Error("expected error for nil training corpus")
	}
}

// TestCorpusStats pins the cache-counter semantics: a hit is a lookup
// that found a resident entry, a miss is one that inserted it, and each
// LRU victim bumps the eviction counter — for both the labeling and the
// window cache.
func TestCorpusStats(t *testing.T) {
	c := newBoundedCorpus(t, corpusTestSeries(), 2)
	if c.Stats() != (CorpusStats{}) {
		t.Fatalf("fresh corpus stats = %+v, want zero", c.Stats())
	}

	steps := []struct {
		opts Options
		want CorpusStats
	}{
		// First (3,1): both caches cold.
		{Options{Omega: 3, Delta: 1}, CorpusStats{LabelMisses: 1, WindowMisses: 1}},
		// Repeat (3,1): warm window pool; the labeling isn't even consulted.
		{Options{Omega: 3, Delta: 1}, CorpusStats{LabelMisses: 1, WindowMisses: 1, WindowHits: 1}},
		// (4,1): new window pool over the δ=1 labeling already cached.
		{Options{Omega: 4, Delta: 1}, CorpusStats{LabelHits: 1, LabelMisses: 1, WindowHits: 1, WindowMisses: 2}},
		// (4,2): new δ; the window cache (limit 2) sheds its LRU entry.
		{Options{Omega: 4, Delta: 2}, CorpusStats{LabelHits: 1, LabelMisses: 2, WindowHits: 1, WindowMisses: 3, WindowEvictions: 1}},
		// (5,3): third δ evicts a labeling too.
		{Options{Omega: 5, Delta: 3}, CorpusStats{LabelHits: 1, LabelMisses: 3, LabelEvictions: 1, WindowHits: 1, WindowMisses: 4, WindowEvictions: 2}},
	}
	for i, step := range steps {
		if _, err := c.Observations(step.opts); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got := c.Stats(); got != step.want {
			t.Fatalf("step %d (omega=%d delta=%d): stats = %+v, want %+v",
				i, step.opts.Omega, step.opts.Delta, got, step.want)
		}
	}
}

// TestCorpusEvictsLeastRecentlyUsed pins the victim: with room for two
// window pools, a third evicts the one used least recently, not the one
// inserted first or used last.
func TestCorpusEvictsLeastRecentlyUsed(t *testing.T) {
	c := newBoundedCorpus(t, corpusTestSeries(), 2)
	for _, omega := range []int{3, 4, 3, 5} { // (4,1) is now least recently used
		if _, err := c.Observations(Options{Omega: omega, Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	if _, err := c.Observations(Options{Omega: 3, Delta: 1}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.WindowHits != before.WindowHits+1 {
		t.Errorf("(3,1) after inserting (5,1): window hits %d -> %d, want it still resident", before.WindowHits, got.WindowHits)
	}
	before = c.Stats()
	if _, err := c.Observations(Options{Omega: 4, Delta: 1}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.WindowMisses != before.WindowMisses+1 {
		t.Errorf("(4,1) after inserting (5,1): window misses %d -> %d, want it evicted", before.WindowMisses, got.WindowMisses)
	}
}

// TestOptimizeTrace checks the per-trial callback: one event per distinct
// configuration, in evaluation order, mirroring History exactly — at any
// Parallelism, since the parallel init design records sequentially.
func TestOptimizeTrace(t *testing.T) {
	train := []*Series{spikySeries("train", 300, []int{50, 120, 200}, 1)}
	val := []*Series{spikySeries("val", 300, []int{80, 170, 240}, 2)}
	trainC, err := NewCorpus(train)
	if err != nil {
		t.Fatal(err)
	}
	valC, err := NewCorpus(val)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		var trials []OptimizeTrial
		res, err := OptimizeCorpus(trainC, valC, ObjectiveF1, OptimizeOptions{
			OmegaMin: 3, OmegaMax: 9,
			DeltaMin: 1, DeltaMax: 4,
			InitPoints: 4, Iterations: 4,
			Seed:        7,
			Parallelism: par,
			Trace:       func(tr OptimizeTrial) { trials = append(trials, tr) },
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(trials) != res.Evaluations || len(trials) != len(res.History) {
			t.Fatalf("parallelism %d: %d trace events, want evaluations=%d history=%d",
				par, len(trials), res.Evaluations, len(res.History))
		}
		for i, tr := range trials {
			h := res.History[i]
			if tr.Evaluation != i+1 || tr.Omega != h.Omega || tr.Delta != h.Delta ||
				tr.Score != h.Score || tr.Elapsed != h.Elapsed {
				t.Errorf("parallelism %d trial %d: %+v diverges from history %+v", par, i, tr, h)
			}
		}
	}
}

// TestEvaluationMatchesPerWindowOracle holds the batch evaluation paths
// — EvaluateCorpus's confusion matrix, Audit's per-rule support and
// false alarms, the predicates PruneRedundant keeps — to a loop over
// c.Observations that matches each window with Predicate.Matches and
// lets the first matching predicate claim it. Those paths sweep the
// corpus's per-series labelings in one call, so it also checks window
// by window that sweep mark i is pooled observation i, across the
// series boundaries of three series of different lengths.
func TestEvaluationMatchesPerWindowOracle(t *testing.T) {
	// Training labels spikes and dips; the evaluation series have no
	// dips, and spikes of their own that no one labeled, so some rules
	// claim nothing and some windows are flagged falsely.
	dips := spikySeries("dips", 300, []int{70, 220}, 3)
	for _, p := range []int{40, 150, 260} {
		dips.Values[p], dips.Anomalies[p] = -100, true
	}
	train := append(corpusTestSeries(), dips)
	eval := []*Series{
		spikySeries("x", 350, []int{30, 90, 91, 240}, 7),
		spikySeries("y", 131, []int{60}, 8),
		spikySeries("z", 277, []int{20, 130, 131, 132, 250}, 9),
	}
	for _, s := range eval {
		s.Values[s.Len()/2+5] = 180
	}
	c, err := NewCorpus(eval)
	if err != nil {
		t.Fatal(err)
	}
	var total oracleCounts
	configs, ran := 0, 0
	for _, mode := range []core.MatchMode{core.MatchContiguous, core.MatchSubsequence} {
		for _, od := range [][2]int{{3, 1}, {5, 2}, {8, 4}, {13, 2}} {
			configs++
			t.Run(fmt.Sprintf("%v/omega=%d/delta=%d", mode, od[0], od[1]), func(t *testing.T) {
				ran++
				opts := Options{Omega: od[0], Delta: od[1], Match: mode, LeafPolicy: rules.MajorityAnomalyLeaves}
				m, err := Fit(train, opts)
				if err != nil {
					t.Fatal(err)
				}
				// Predicates read off one tree never overlap, so a variant
				// appends one predicate per positive composition of the
				// rule: each fires wherever a predicate holding it does,
				// and is often shadowed by it.
				r := m.Rule()
				overlapping := *m
				overlapping.rule = Rule{Mode: r.Mode, Predicates: slices.Clone(r.Predicates)}
				for _, p := range r.Predicates {
					for _, comp := range p.PositiveCompositions() {
						overlapping.rule.Predicates = append(overlapping.rule.Predicates,
							rules.Predicate{Literals: []rules.Literal{{Comp: comp}}})
					}
				}
				overlapping.eng = engine.Compile(overlapping.rule, opts.Omega)
				for _, v := range []*Model{m, &overlapping} {
					total.add(checkEvaluationOracle(t, fmt.Sprintf("%d predicates", v.rule.Count()), v, c, eval))
				}
			})
		}
	}
	// The oracle must have seen rules pruned both ways and windows
	// falsely flagged, or the comparisons prove less than they say; a
	// -run filter that selects some configurations skips this check.
	if ran < configs {
		return
	}
	if total.shadowed == 0 || total.idle == 0 || total.falseAlarms == 0 {
		t.Fatalf("over every configuration: %d shadowed and %d idle predicates pruned, %d false alarms; want all > 0",
			total.shadowed, total.idle, total.falseAlarms)
	}
}

// oracleCounts tallies what an oracle comparison exercised: pruned
// predicates that match an anomalous window another predicate claims
// first (shadowed) or match none (idle), and false alarms.
type oracleCounts struct{ shadowed, idle, falseAlarms int }

func (o *oracleCounts) add(p oracleCounts) {
	o.shadowed, o.idle, o.falseAlarms = o.shadowed+p.shadowed, o.idle+p.idle, o.falseAlarms+p.falseAlarms
}

// checkEvaluationOracle compares m's sweep marks over c, EvaluateCorpus,
// Audit and PruneRedundant with the first-match Predicate.Matches loop
// over c.Observations; eval are c's series.
func checkEvaluationOracle(t *testing.T, name string, m *Model, c *Corpus, eval []*Series) oracleCounts {
	t.Helper()
	obs, err := c.Observations(m.Opts)
	if err != nil {
		t.Fatal(err)
	}
	perSeries, err := c.labelsFor(m.pcfg)
	if err != nil {
		t.Fatal(err)
	}
	marks := m.eng.Sweep(perSeries...)
	if marks.NumWindows() != len(obs) {
		t.Fatalf("%s: sweep has %d windows, pool %d", name, marks.NumWindows(), len(obs))
	}
	r := m.Rule()
	var want evalmetrics.Confusion
	support := make([]int, len(r.Predicates))
	alarms := make([]int, len(r.Predicates))
	for i := range obs {
		first := slices.IndexFunc(r.Predicates, func(p rules.Predicate) bool { return p.Matches(obs[i].Labels, r.Mode) })
		if got := marks.First(i); got != first {
			t.Fatalf("%s: window %d: sweep's first predicate %d, oracle %d", name, i, got, first)
		}
		actual := obs[i].Class == core.Anomaly
		want.Add(first >= 0, actual)
		switch {
		case first >= 0 && actual:
			support[first]++
		case first >= 0:
			alarms[first]++
		}
	}

	rep, err := m.EvaluateCorpus(c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Confusion != want {
		t.Errorf("%s: EvaluateCorpus confusion %+v, oracle %+v", name, rep.Confusion, want)
	}
	stats, err := m.Audit(eval)
	if err != nil {
		t.Fatal(err)
	}
	var seen oracleCounts
	var kept []rules.Predicate
	for i, st := range stats {
		if st.Support != support[i] || st.FalseAlarms != alarms[i] {
			t.Errorf("%s: rule %d: Audit support %d, false alarms %d; oracle %d, %d",
				name, st.Index, st.Support, st.FalseAlarms, support[i], alarms[i])
		}
		seen.falseAlarms += alarms[i]
		p := r.Predicates[i]
		switch {
		case support[i] > 0:
			kept = append(kept, p)
		case slices.ContainsFunc(obs, func(o Observation) bool { return o.Class == core.Anomaly && p.Matches(o.Labels, r.Mode) }):
			seen.shadowed++
		default:
			seen.idle++
		}
	}
	got, err := m.PruneRedundant(eval)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != r.Mode || !reflect.DeepEqual(got.Predicates, kept) {
		t.Errorf("%s: PruneRedundant kept\n%s\noracle keeps\n%s", name,
			got.Format(m.pcfg), Rule{Mode: r.Mode, Predicates: kept}.Format(m.pcfg))
	}
	return seen
}

// TestPruneRedundantDropsShadowedAndDeadPredicates appends to a trained
// rule a copy of each of its predicates, which the original claims every
// window from first, and a predicate that negates the empty composition,
// which no window satisfies. Pruning against the training series drops
// both kinds and keeps what pruning the trained rule keeps.
func TestPruneRedundantDropsShadowedAndDeadPredicates(t *testing.T) {
	train := corpusTestSeries()
	for _, mode := range []core.MatchMode{core.MatchContiguous, core.MatchSubsequence} {
		m, err := Fit(train, Options{Omega: 5, Delta: 2, Match: mode})
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.PruneRedundant(train)
		if err != nil {
			t.Fatal(err)
		}
		if want.Count() == 0 {
			t.Fatalf("mode=%v: pruning against the training series kept nothing", mode)
		}
		padded := *m
		padded.rule = Rule{Mode: mode, Predicates: slices.Concat(m.rule.Predicates, m.rule.Predicates,
			[]rules.Predicate{{Literals: []rules.Literal{{Neg: true}}}})}
		padded.eng = engine.Compile(padded.rule, padded.Opts.Omega)
		got, err := padded.PruneRedundant(train)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mode=%v: padded rule pruned to\n%s\nwant\n%s", mode, got.Format(m.pcfg), want.Format(m.pcfg))
		}
	}
}
