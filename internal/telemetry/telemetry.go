// Package telemetry is the repository's runtime-metrics core: atomic
// counters, gauges, and fixed-bucket latency histograms behind a
// registry with Prometheus text-format exposition. It is stdlib-only
// and built for hot paths:
//
//   - Writes (Counter.Add, Gauge.Set, Histogram.Observe) are lock-free
//     atomic operations. The serving benchmarks gate on instrumentation
//     staying under noise, so the histogram hot path is a binary search
//     over a fixed bucket table plus one atomic increment and one CAS
//     float add — no mutex, no allocation.
//   - Reads (WritePrometheus) take only the registry's registration
//     mutex, which writers never touch: a scrape can never block a
//     request thread. Snapshots are per-value atomic loads, not a
//     consistent cut across metrics — standard for Prometheus clients.
//   - Registration (Registry.Counter, Vec.With, ...) is mutex-guarded
//     and meant for setup time; callers pre-resolve instruments for
//     their hot paths instead of doing a Vec lookup per event.
//
// The package also owns the repo's wall-clock access for trace events
// (Stopwatch): deterministic training packages (cdt, internal/bayesopt)
// are forbidden direct time.Now calls by the cdtlint detfloat analyzer,
// because clocks must never feed back into training results. Durations
// that ride *alongside* results — optimizer trial traces, per-scale
// pyramid sweep timings — go through the Stopwatch so the boundary
// stays auditable: any clock read in a deterministic package is a
// telemetry import, not a hidden dependency.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency histogram bounds in seconds,
// spanning 100µs to 10s — wide enough for both the sub-millisecond
// stream pushes and multi-second cold batch detects cdtserve sees.
// The +Inf bucket is implicit.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing count. The zero value is usable
// but unregistered; obtain registered counters from a Registry.
type Counter struct {
	v      atomic.Uint64
	labels string
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer value that can go up and down (in-flight
// requests, live sessions).
type Gauge struct {
	v      atomic.Int64
	labels string
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Observe is lock-free; the
// bucket bounds are immutable after construction.
type Histogram struct {
	bounds []float64 // upper bounds, sorted ascending; +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	labels string
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// sort.SearchFloat64s finds the first bound >= v only when bounds are
	// treated as inclusive upper edges (Prometheus "le" semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the elapsed seconds of a Stopwatch — the common
// latency-instrumentation idiom.
func (h *Histogram) ObserveSince(sw Stopwatch) { h.Observe(sw.Elapsed().Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Stopwatch measures a wall-clock duration. Deterministic packages use
// it instead of time.Now so the detfloat analyzer can keep direct clock
// reads out of training code; see the package comment.
type Stopwatch struct{ start time.Time }

// NewStopwatch starts timing.
func NewStopwatch() Stopwatch { return Stopwatch{start: time.Now()} }

// Elapsed returns the time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }

// --- registry ----------------------------------------------------------

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
)

func (k metricKind) String() string {
	switch k {
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// family is one metric name: help text, type, and every labeled child.
type family struct {
	name string
	help string
	kind metricKind

	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	buckets  []float64 // histogram families share one bucket table
	gaugeFns []func() int64
}

// Registry holds metric families and renders them in Prometheus text
// format. Metric writes never touch the registry; only registration and
// exposition take its mutex.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	ordered  []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family, creating it on first registration and
// panicking on a kind mismatch — metric names are compile-time
// constants, so a collision is a programming error, not a runtime
// condition to handle.
func (r *Registry) lookup(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.ordered = append(r.ordered, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as both %s and %s", name, f.kind, kind))
	}
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.counter(name, help, "")
}

func (r *Registry) counter(name, help, labels string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	for _, c := range f.counters {
		if c.labels == labels {
			return c
		}
	}
	c := &Counter{labels: labels}
	f.counters = append(f.counters, c)
	return c
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.gauge(name, help, "")
}

func (r *Registry) gauge(name, help, labels string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	for _, g := range f.gauges {
		if g.labels == labels {
			return g
		}
	}
	g := &Gauge{labels: labels}
	f.gauges = append(f.gauges, g)
	return g
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// bucket upper bounds (nil uses DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.histogram(name, help, buckets, "")
}

func (r *Registry) histogram(name, help string, buckets []float64, labels string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram)
	if f.buckets == nil {
		f.buckets = buckets
	}
	for _, h := range f.hists {
		if h.labels == labels {
			return h
		}
	}
	h := &Histogram{
		bounds: f.buckets,
		counts: make([]atomic.Uint64, len(f.buckets)+1), // +1 for +Inf
		labels: labels,
	}
	f.hists = append(f.hists, h)
	return h
}

// GaugeFunc registers a gauge read from fn at scrape time (live session
// counts, loaded models).
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGaugeFunc)
	f.gaugeFns = append(f.gaugeFns, fn)
}

// --- vectors -----------------------------------------------------------

// CounterVec is a counter family partitioned by label values. With is
// mutex-guarded: resolve children once at setup, not per event.
type CounterVec struct {
	r          *Registry
	name, help string
	labelNames []string
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	r.mu.Lock()
	r.lookup(name, help, kindCounter)
	r.mu.Unlock()
	return &CounterVec{r: r, name: name, help: help, labelNames: labelNames}
}

// With returns the child counter for the given label values (one per
// label name, in order).
func (v *CounterVec) With(values ...string) *Counter {
	return v.r.counter(v.name, v.help, renderLabels(v.labelNames, values))
}

// GaugeVec is a gauge family partitioned by label values. With is
// mutex-guarded: resolve children once at setup, not per event.
type GaugeVec struct {
	r          *Registry
	name, help string
	labelNames []string
}

// GaugeVec registers a labeled gauge family (per-model staleness flags,
// per-shard occupancy).
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	r.mu.Lock()
	r.lookup(name, help, kindGauge)
	r.mu.Unlock()
	return &GaugeVec{r: r, name: name, help: help, labelNames: labelNames}
}

// With returns the child gauge for the given label values (one per
// label name, in order).
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.r.gauge(v.name, v.help, renderLabels(v.labelNames, values))
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	r          *Registry
	name, help string
	buckets    []float64
	labelNames []string
}

// HistogramVec registers a labeled histogram family (nil buckets uses
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	r.mu.Lock()
	f := r.lookup(name, help, kindHistogram)
	if f.buckets == nil {
		f.buckets = buckets
	}
	r.mu.Unlock()
	return &HistogramVec{r: r, name: name, help: help, buckets: buckets, labelNames: labelNames}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.r.histogram(v.name, v.help, v.buckets, renderLabels(v.labelNames, values))
}

// renderLabels pre-renders a label set as `name="value",...` (sorted by
// label name) so exposition is a plain string write.
func renderLabels(names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("telemetry: %d label values for %d label names", len(values), len(names)))
	}
	if len(names) == 0 {
		return ""
	}
	pairs := make([]string, len(names))
	for i, n := range names {
		pairs[i] = n + `="` + escapeLabel(values[i]) + `"`
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// escapeLabel applies the Prometheus label-value escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\n\"") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '"':
			b.WriteString(`\"`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// --- exposition --------------------------------------------------------

// WritePrometheus renders every registered family in Prometheus text
// exposition format to w.
func (r *Registry) WritePrometheus(w io.Writer) error {
	_, err := io.WriteString(w, r.Render())
	return err
}

// render builds the exposition (sorted by family name, children in
// registration order). Values are atomic loads; writers are never
// blocked — only registration contends on the mutex held here.
func (r *Registry) render(w *strings.Builder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, len(r.ordered))
	copy(fams, r.ordered)
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		switch f.kind {
		case kindCounter:
			for _, c := range f.counters {
				writeLine(w, f.name, "", c.labels, strconv.FormatUint(c.Value(), 10))
			}
		case kindGauge:
			for _, g := range f.gauges {
				writeLine(w, f.name, "", g.labels, strconv.FormatInt(g.Value(), 10))
			}
		case kindGaugeFunc:
			for _, fn := range f.gaugeFns {
				writeLine(w, f.name, "", "", strconv.FormatInt(fn(), 10))
			}
		case kindHistogram:
			for _, h := range f.hists {
				writeHistogram(w, f.name, h)
			}
		}
	}
}

// Render returns the exposition as a string (the HTTP handler's path).
func (r *Registry) Render() string {
	var b strings.Builder
	r.render(&b)
	return b.String()
}

func writeLine(w *strings.Builder, name, suffix, labels, value string) {
	w.WriteString(name)
	w.WriteString(suffix)
	if labels != "" {
		w.WriteString("{")
		w.WriteString(labels)
		w.WriteString("}")
	}
	w.WriteString(" ")
	w.WriteString(value)
	w.WriteString("\n")
}

// writeHistogram renders cumulative buckets plus _sum and _count. Bucket
// counts are loaded once each, so the cumulative series is internally
// consistent even while observes race the scrape; _count is derived from
// the same loads.
func writeHistogram(w *strings.Builder, name string, h *Histogram) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeLine(w, name, "_bucket", joinLabels(h.labels, `le="`+formatFloat(bound)+`"`), strconv.FormatUint(cum, 10))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeLine(w, name, "_bucket", joinLabels(h.labels, `le="+Inf"`), strconv.FormatUint(cum, 10))
	writeLine(w, name, "_sum", h.labels, formatFloat(h.Sum()))
	writeLine(w, name, "_count", h.labels, strconv.FormatUint(cum, 10))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
