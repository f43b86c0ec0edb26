package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrometheusExpositionGolden pins the exact exposition format: the
// server's /metrics endpoint is a public contract with scrapers, so any
// change to HELP/TYPE lines, label rendering, bucket cumulation, or
// number formatting must show up as a diff here.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()

	reqs := r.CounterVec("test_requests_total", "Requests by endpoint and code class.", "endpoint", "code")
	reqs.With("detect", "2xx").Add(41)
	reqs.With("detect", "2xx").Inc()
	reqs.With("detect", "5xx").Inc()
	reqs.With("healthz", "2xx").Add(7)

	g := r.Gauge("test_in_flight", "In-flight requests.")
	g.Add(3)
	g.Add(-1)

	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}

	r.GaugeFunc("test_sessions_active", "Live sessions.", func() int64 { return 12 })

	got := r.Render()
	want := strings.Join([]string{
		`# HELP test_in_flight In-flight requests.`,
		`# TYPE test_in_flight gauge`,
		`test_in_flight 2`,
		`# HELP test_latency_seconds Request latency.`,
		`# TYPE test_latency_seconds histogram`,
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="1"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_sum 5.605`,
		`test_latency_seconds_count 5`,
		`# HELP test_requests_total Requests by endpoint and code class.`,
		`# TYPE test_requests_total counter`,
		`test_requests_total{code="2xx",endpoint="detect"} 42`,
		`test_requests_total{code="5xx",endpoint="detect"} 1`,
		`test_requests_total{code="2xx",endpoint="healthz"} 7`,
		`# HELP test_sessions_active Live sessions.`,
		`# TYPE test_sessions_active gauge`,
		`test_sessions_active 12`,
	}, "\n") + "\n"
	if got != want {
		t.Errorf("exposition drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramBucketEdges pins the "le" upper-bound-inclusive semantics
// Prometheus requires: a value exactly on a bound lands in that bound's
// bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_seconds", "edges", []float64{1, 2})
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(3) // +Inf
	out := r.Render()
	for _, want := range []string{
		`edge_seconds_bucket{le="1"} 1`,
		`edge_seconds_bucket{le="2"} 2`,
		`edge_seconds_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 3 || h.Sum() != 6 {
		t.Errorf("count=%d sum=%v, want 3 and 6", h.Count(), h.Sum())
	}
}

// TestVecResolvesSameChild verifies that With with equal label values
// returns the same underlying metric (the pre-resolution contract hot
// paths rely on).
func TestVecResolvesSameChild(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("vec_total", "vec", "a")
	if v.With("x") != v.With("x") {
		t.Error("With(x) returned distinct counters for equal labels")
	}
	if v.With("x") == v.With("y") {
		t.Error("With(x) and With(y) share a counter")
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("gvec", "per-model flag", "model")
	if v.With("a") != v.With("a") {
		t.Error("With(a) returned distinct gauges for equal labels")
	}
	if v.With("a") == v.With("b") {
		t.Error("With(a) and With(b) share a gauge")
	}
	v.With("a").Set(1)
	out := r.Render()
	for _, want := range []string{`gvec{model="a"} 1`, `gvec{model="b"} 0`} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The unlabeled Gauge and a GaugeVec child share a family without
	// colliding.
	r.Gauge("gvec2", "flag").Set(5)
	if got := r.GaugeVec("gvec2", "flag", "m").With("x"); got.Value() != 0 {
		t.Errorf("labeled child inherited unlabeled value %d", got.Value())
	}
}

// TestLabelEscaping covers the three escaped characters in label values.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "esc", "p").With("a\"b\\c\nd").Inc()
	out := r.Render()
	want := `esc_total{p="a\"b\\c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("escaped line %q missing from:\n%s", want, out)
	}
}

// TestKindMismatchPanics: re-registering a name as a different metric
// type is a programming error and must fail loudly.
func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual_total", "first")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("dual_total", "second")
}

// TestConcurrentObserveAndScrape is the -race hammer over the lock-free
// hot path: writers pound counters, gauges, and histogram buckets while
// readers scrape continuously; afterwards the totals must balance
// exactly (atomic increments lose nothing).
func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "hammer")
	g := r.Gauge("hammer_gauge", "hammer")
	h := r.Histogram("hammer_seconds", "hammer", DefBuckets)
	vec := r.CounterVec("hammer_vec_total", "hammer", "worker")

	const (
		writers = 8
		perG    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers run for the whole write phase; every render must stay
	// internally parseable and monotone in the counter.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				out := r.Render()
				if !strings.Contains(out, "hammer_total") {
					t.Error("scrape lost a family")
					return
				}
				if v := c.Value(); v < last {
					t.Errorf("counter went backwards: %d -> %d", last, v)
					return
				} else {
					last = v
				}
			}
		}()
	}
	var writerWg sync.WaitGroup
	for wkr := 0; wkr < writers; wkr++ {
		writerWg.Add(1)
		go func(wkr int) {
			defer writerWg.Done()
			child := vec.With("w")
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%7) * 0.003)
				child.Inc()
			}
		}(wkr)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()

	if got := c.Value(); got != writers*perG {
		t.Errorf("counter = %d, want %d", got, writers*perG)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != writers*perG {
		t.Errorf("histogram count = %d, want %d", got, writers*perG)
	}
	// Sum check: each writer contributes sum over i of (i%7)*0.003.
	var per float64
	for i := 0; i < perG; i++ {
		per += float64(i%7) * 0.003
	}
	if got, want := h.Sum(), per*writers; math.Abs(got-want) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
	if got := vec.With("w").Value(); got != writers*perG {
		t.Errorf("vec counter = %d, want %d", got, writers*perG)
	}
}

func TestStopwatch(t *testing.T) {
	sw := NewStopwatch()
	time.Sleep(time.Millisecond)
	if sw.Elapsed() < time.Millisecond {
		t.Errorf("stopwatch measured %v after 1ms sleep", sw.Elapsed())
	}
}
