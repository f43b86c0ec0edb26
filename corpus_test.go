package cdt

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cdt/internal/core"
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
