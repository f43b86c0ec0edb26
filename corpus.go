package cdt

// Corpus is the shared training-pipeline layer: it inverts the data flow
// of the original trainers. Instead of every Fit/Evaluate/Optimize call
// re-running normalize → label → window from scratch, series are
// normalized once at corpus construction (normalization is
// parameter-free), per-δ labelings and per-(ω, δ) pooled observation
// windows are memoized in bounded least-recently-used caches, and
// trainers pull immutable labeled views out of the corpus. Hyper-parameter
// search (one CDT per candidate (ω, δ)) and cross-validation suites — the
// two hottest training-side loops — are the intended beneficiaries:
// candidates sharing a δ share one labeling, and repeated (ω, δ)
// evaluations across searches share everything but tree induction.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"cdt/internal/core"
	"cdt/internal/pattern"
	"cdt/internal/rules"
	"cdt/internal/timeseries"
)

// cacheLimit bounds each of a corpus's caches. The paper's full search
// space is ω ∈ [3,31] × δ ∈ [1,21] = 609 cells, but a Bayesian search
// touches a few dozen of them; 256 keeps every candidate of a typical
// search (and the repeated candidates of a two-objective suite) resident
// without letting a grid sweep pin the whole plane in memory. A pyramid
// has at most maxPyramidScales resolutions, far below the bound.
const cacheLimit = 256

// Corpus holds pre-normalized training (or evaluation) series and
// memoizes the parameter-dependent pipeline stages:
//
//	series ──normalize once──► Corpus ──per-δ cache──► labelings
//	                                  ──per-(ω,δ) cache──► pooled windows
//	                                  ──per-factor cache──► downsampled corpora
//
// Cache keys are the effective pattern configuration: labelings key on
// (δ, ε), window pools on (ω, δ, ε), where ε is the value-equality
// tolerance after defaulting. Every cache is bounded; when full, the
// least-recently-used entry is evicted and will be recomputed on the next
// request (evicted slices remain valid for holders — nothing is recycled).
//
// A Corpus is safe for concurrent use. Everything it hands out is shared
// and immutable by contract: callers must not mutate returned observation
// slices or their labels, and must not mutate the underlying series while
// the corpus is alive (construction reuses a caller's slice when the
// series is already normalized to [0,1]).
type Corpus struct {
	series []*Series

	labels      cache[labelKey, [][]pattern.Label]
	windows     cache[windowKey, []core.Observation]
	resolutions cache[resolutionKey, *Corpus]
}

// CorpusStats is a point-in-time snapshot of a corpus's pipeline-cache
// counters: hits, misses, and evictions per cache map. A "hit" is a
// lookup that found a resident entry (even one still being computed by
// another goroutine — the lookup shares that computation); a "miss"
// inserted a new entry; an "eviction" dropped an LRU victim to make
// room. Misses minus evictions bounds resident entries; a high eviction
// rate means the cache bound is below the search's working set.
type CorpusStats struct {
	LabelHits, LabelMisses, LabelEvictions    uint64
	WindowHits, WindowMisses, WindowEvictions uint64
}

// Stats returns this corpus's cache counters. Counters are bumped
// outside the cache locks, so the snapshot is near-consistent, which is
// all an observability surface needs.
func (c *Corpus) Stats() CorpusStats {
	var s CorpusStats
	s.LabelHits, s.LabelMisses, s.LabelEvictions = c.labels.stats()
	s.WindowHits, s.WindowMisses, s.WindowEvictions = c.windows.stats()
	return s
}

// labelKey identifies a labeling: labeling depends only on δ and the
// equality tolerance, not on ω.
type labelKey struct {
	delta   int
	epsilon float64
}

// windowKey identifies a pooled window set: ω plus the labeling key.
type windowKey struct {
	omega int
	labelKey
}

// resolutionKey identifies a derived downsampled corpus: the resample
// factor plus the bucket aggregator (canonicalized, so "" and "mean"
// share an entry).
type resolutionKey struct {
	factor int
	agg    string
}

// NewCorpus builds a corpus over the series, normalizing each to [0,1]
// up front (series already in range are used as-is, so pre-normalized
// splits keep a common scale — the same rule Fit always applied).
func NewCorpus(series []*Series) (*Corpus, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("cdt: corpus needs at least one series")
	}
	c := &Corpus{series: make([]*Series, len(series))}
	for i, s := range series {
		ns, err := ensureNormalized(s)
		if err != nil {
			return nil, fmt.Errorf("cdt: series %q: %w", s.Name, err)
		}
		c.series[i] = ns
	}
	return c, nil
}

// Len returns the number of series in the corpus.
func (c *Corpus) Len() int { return len(c.series) }

// labelsFor returns the cached per-series labelings for a pattern
// configuration, computing them once on miss. All series label into one
// backing array via pattern.LabelSeriesInto, so a cache refill costs a
// single allocation regardless of corpus width.
func (c *Corpus) labelsFor(pcfg pattern.Config) ([][]pattern.Label, error) {
	return c.labels.get(labelKey{delta: pcfg.Delta, epsilon: pcfg.Epsilon}, func() ([][]pattern.Label, error) {
		total := 0
		for _, s := range c.series {
			if n := s.Len() - 2; n > 0 {
				total += n
			}
		}
		buf := make([]pattern.Label, 0, total)
		perSeries := make([][]pattern.Label, len(c.series))
		for i, s := range c.series {
			start := len(buf)
			var err error
			buf, err = pcfg.LabelSeriesInto(buf, s.Values)
			if err != nil {
				return nil, fmt.Errorf("cdt: series %q: %w", s.Name, err)
			}
			// Full slice expression: a labeling is immutable once cached.
			perSeries[i] = buf[start:len(buf):len(buf)]
		}
		return perSeries, nil
	})
}

// Observations returns the pooled ω-windows of every corpus series for
// the given options — the exact pool Fit trains on — computing and
// caching them on first request. The returned slice is shared: treat it
// (and the labels it references) as read-only.
func (c *Corpus) Observations(opts Options) ([]Observation, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	pcfg := opts.patternConfig()
	k := windowKey{omega: opts.Omega, labelKey: labelKey{delta: pcfg.Delta, epsilon: pcfg.Epsilon}}
	return c.windows.get(k, func() ([]core.Observation, error) {
		perSeries, err := c.labelsFor(pcfg)
		if err != nil {
			return nil, err
		}
		total := 0
		for _, labels := range perSeries {
			if n := len(labels) - opts.Omega + 1; n > 0 {
				total += n
			}
		}
		pooled := make([]core.Observation, 0, total)
		for i, labels := range perSeries {
			s := c.series[i]
			if opts.Omega > len(labels) {
				return nil, fmt.Errorf("cdt: series %q: omega %d exceeds %d labels", s.Name, opts.Omega, len(labels))
			}
			if pooled, err = core.AppendWindows(pooled, labels, s.Anomalies, opts.Omega); err != nil {
				return nil, fmt.Errorf("cdt: series %q: %w", s.Name, err)
			}
		}
		return pooled, nil
	})
}

// AtResolution returns the corpus downsampled by factor with the named
// bucket aggregator ("mean" by default, or "max") — the per-resolution
// view a pyramid trains its scale models on. Factor 1 returns the
// receiver itself; other factors are derived once and memoized, so
// per-resolution labelings and window pools are just more cache keys of
// the derived corpus. Anomaly annotations survive downsampling (a
// bucket is anomalous when any covered point was). The derived corpus
// has caches of its own, with the same bound.
func (c *Corpus) AtResolution(factor int, aggregator string) (*Corpus, error) {
	if factor < 1 {
		return nil, fmt.Errorf("cdt: resolution factor %d, want >= 1", factor)
	}
	agg, err := aggregatorOf(aggregator)
	if err != nil {
		return nil, err
	}
	if factor == 1 {
		return c, nil
	}
	k := resolutionKey{factor: factor, agg: canonicalAggregator(aggregator)}
	return c.resolutions.get(k, func() (*Corpus, error) {
		ds := make([]*Series, len(c.series))
		for i, s := range c.series {
			d, err := timeseries.Downsample(s, factor, agg)
			if err != nil {
				return nil, fmt.Errorf("cdt: series %q at 1/%d resolution: %w", s.Name, factor, err)
			}
			ds[i] = d
		}
		return NewCorpus(ds)
	})
}

// Fit trains a CDT on the corpus — the same pipeline as the package-level
// Fit (which is now a thin wrapper over a throwaway corpus), but pulling
// the pooled windows out of the cache so repeated fits at overlapping
// hyper-parameters pay only for tree induction.
func (c *Corpus) Fit(opts Options) (*Model, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	pooled, err := c.Observations(opts)
	if err != nil {
		return nil, err
	}
	tree, err := core.Build(pooled, opts.coreOptions())
	if err != nil {
		return nil, err
	}
	m := &Model{Opts: opts, tree: tree, pcfg: opts.patternConfig()}
	m.raw = rules.FromTree(tree, opts.LeafPolicy)
	m.finalizeRules()
	return m, nil
}

// cache is a bounded memo table, one per memoized pipeline stage. A
// per-entry sync.Once runs compute once per resident key, even under
// concurrent misses, outside every lock; errors are cached like values.
// When full, an insert evicts the least-recently-used entry, breaking
// last-use ties by insertion order so the contents are a pure function
// of the request history, never of map iteration order. An evicted
// value stays valid for any goroutine that already holds it.
type cache[K comparable, V any] struct {
	limit int // resident-entry bound; zero means cacheLimit

	mu      sync.RWMutex
	clock   atomic.Uint64 // use clock: insertion numbers and last uses
	entries map[K]*cacheEntry[V]

	hits, misses, evictions atomic.Uint64
}

type cacheEntry[V any] struct {
	once    sync.Once
	lastUse atomic.Uint64 // bumped by every lookup, outside the lock
	seq     uint64        // insertion number, read under the write lock

	val V
	err error
}

// get returns the value cached under k, computing it on first request.
// The lookup takes c.mu for reading; a miss takes it for writing to
// insert the entry, and compute runs after the lock is released.
func (c *cache[K, V]) get(k K, compute func() (V, error)) (V, error) {
	c.mu.RLock()
	e, ok := c.entries[k]
	c.mu.RUnlock()
	if !ok {
		c.mu.Lock()
		if e, ok = c.entries[k]; !ok {
			c.evict()
			e = &cacheEntry[V]{seq: c.clock.Add(1)}
			if c.entries == nil {
				c.entries = make(map[K]*cacheEntry[V])
			}
			c.entries[k] = e
		}
		c.mu.Unlock()
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.lastUse.Store(c.clock.Add(1))
	e.once.Do(func() { e.val, e.err = compute() })
	return e.val, e.err
}

// evict removes least-recently-used entries until one more fits under
// the limit. Callers must hold c.mu for writing.
func (c *cache[K, V]) evict() {
	limit := c.limit
	if limit == 0 {
		limit = cacheLimit
	}
	for len(c.entries) >= limit {
		var victim K
		minUse, minSeq := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for k, e := range c.entries {
			u := e.lastUse.Load()
			if u < minUse || (u == minUse && e.seq < minSeq) {
				minUse, minSeq, victim = u, e.seq, k
			}
		}
		delete(c.entries, victim)
		c.evictions.Add(1)
	}
}

// stats returns the cache's hit, miss and eviction counts.
func (c *cache[K, V]) stats() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
