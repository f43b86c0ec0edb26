// Package trace is the stdlib-only request-tracing layer for the
// serving stack: explicit spans with parent links and attributes, W3C
// traceparent propagation, head sampling plus tail retention of slow
// requests, a lock-free bounded in-memory span ring (served at GET
// /debug/traces), and optional JSONL export for offline analysis. The
// Tracer owns the retention policy: which finished requests the ring
// keeps.
//
// The design is shaped by the serving benchmarks' overhead gate: when a
// request is not sampled, every span operation is a nil-receiver no-op
// — StartSpan returns a nil *Span on an unsampled context, and all
// *Span methods tolerate a nil receiver — so the unsampled hot path
// pays one context lookup per instrumentation point and nothing else.
// Sampled spans pay for themselves: ID minting, attribute appends, and
// one atomic ring store at End.
//
// Spans are single-goroutine: the goroutine that starts a span sets its
// attributes and ends it. Distinct spans of one trace may live on
// different goroutines (the batch pool fans series spans out), and the
// ring tolerates fully concurrent writers.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Tracer.
type Config struct {
	// SampleRate is the head-sampling probability in [0, 1] applied to
	// requests that arrive without a traceparent. Inbound sampled
	// traceparents are always honored regardless of the rate; 0 traces
	// nothing but still honors inbound sampled requests.
	SampleRate float64
	// SlowThreshold keeps requests the head sampler skipped when they
	// run at least this long: Retain records each as a root-only span
	// under a fresh trace ID. <= 0 keeps sampled requests only.
	SlowThreshold time.Duration
	// RingSize bounds the in-memory span ring (default 256).
	RingSize int
	// Export, when non-nil, receives one JSON line per finished span —
	// the offline-analysis feed (cdtserve -trace-export).
	Export io.Writer
}

// defaultRingSize keeps roughly the last few dozen multi-span requests
// without the ring becoming a request log.
const defaultRingSize = 256

// Tracer owns the sampling decision, the span ring, and the exporter.
// All methods are safe for concurrent use; a nil *Tracer is a valid
// "tracing disabled" tracer.
type Tracer struct {
	// step is the fixed-point sample rate in 2^32 units: an atomic
	// accumulator advances by step per root decision and samples when
	// the low 32 bits wrap, giving a deterministic every-1/rate-th
	// admission without math/rand in the hot path.
	step uint64
	acc  atomic.Uint64
	slow time.Duration // Config.SlowThreshold

	ring []atomic.Pointer[SpanData]
	seq  atomic.Uint64 // ring write cursor (total spans recorded)

	spanSeq atomic.Uint64 // span-ID counter, mixed with spanKey

	mu     sync.Mutex // guards export writes
	export io.Writer
}

// New builds a Tracer. Rates outside [0, 1] are clamped.
func New(cfg Config) *Tracer {
	rate := cfg.SampleRate
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	size := cfg.RingSize
	if size <= 0 {
		size = defaultRingSize
	}
	return &Tracer{
		step:   uint64(rate * (1 << 32)),
		slow:   cfg.SlowThreshold,
		ring:   make([]atomic.Pointer[SpanData], size),
		export: cfg.Export,
	}
}

// sample is the head-sampling decision for one root without an inbound
// traceparent.
func (t *Tracer) sample() bool {
	if t.step >= 1<<32 {
		return true
	}
	if t.step == 0 {
		return false
	}
	next := t.acc.Add(t.step)
	return uint32(next) < uint32(t.step)
}

// spanKey makes span IDs unguessable across processes; the counter
// makes them unique (and cheap) within one.
var spanKey = func() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("trace: span id key: %v", err))
	}
	return binary.BigEndian.Uint64(b[:])
}()

// newSpanID mints a 16-hex-char W3C span ID.
func (t *Tracer) newSpanID() string {
	// Weyl-sequence mixing keeps consecutive IDs visually distinct while
	// staying collision-free within the process (the multiplier is odd,
	// so n ↦ n·c is a bijection on uint64).
	v := spanKey ^ (t.spanSeq.Add(1) * 0x9e3779b97f4a7c15)
	if v == 0 {
		v = 1 // the all-zero span ID is invalid per W3C
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return hex.EncodeToString(b[:])
}

// newTraceID mints a 32-hex-char W3C trace ID. Only sampled roots pay
// for the crypto/rand read.
func newTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade loudly,
		// matching the serving layer's request-ID generator.
		panic(fmt.Sprintf("trace: trace id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// newSpan starts a span of t's trace traceID.
func (t *Tracer) newSpan(traceID, parentID, name string, start time.Time) *Span {
	return &Span{
		tracer:   t,
		traceID:  traceID,
		spanID:   t.newSpanID(),
		parentID: parentID,
		name:     name,
		start:    start,
	}
}

// Attr is one span attribute.
type Attr struct {
	Key, Value string
}

// Span is one in-flight timed operation. A nil *Span is the unsampled
// case and every method no-ops on it.
type Span struct {
	tracer   *Tracer
	traceID  string
	spanID   string
	parentID string
	name     string
	start    time.Time
	attrs    []Attr
}

// SpanData is the finished-span record kept in the ring, served on
// /debug/traces, and exported as JSONL.
type SpanData struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	StartUnixN int64             `json:"start_unix_ns"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceID returns the span's trace ID ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SpanID returns the span's ID ("" on a nil span).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// Traceparent renders the span as an outbound W3C traceparent header
// ("" on a nil span). Spans exist only when sampled, so the flag is
// always 01.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.traceID, s.spanID, true)
}

// SetAttr attaches a key/value attribute. Attribute values are
// diagnostic strings, not metric labels — unbounded values are fine
// here because the ring is bounded, not the key space.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End finishes the span: computes its duration and publishes it to the
// ring (and the exporter, when configured).
func (s *Span) End() {
	if s == nil {
		return
	}
	sd := &SpanData{
		TraceID:    s.traceID,
		SpanID:     s.spanID,
		ParentID:   s.parentID,
		Name:       s.name,
		StartUnixN: s.start.UnixNano(),
		DurationMS: float64(time.Since(s.start)) / float64(time.Millisecond),
	}
	if len(s.attrs) > 0 {
		sd.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			sd.Attrs[a.Key] = a.Value
		}
	}
	t := s.tracer
	i := t.seq.Add(1) - 1
	t.ring[i%uint64(len(t.ring))].Store(sd)
	if t.export != nil {
		t.exportLine(sd)
	}
}

// exportLine appends one JSONL record. The mutex serializes writers so
// lines never interleave; export is off the benchmark-gated path (only
// sampled spans reach it).
func (t *Tracer) exportLine(sd *SpanData) {
	b, err := json.Marshal(sd)
	if err != nil {
		return // SpanData marshals by construction; nothing to report to
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_, _ = t.export.Write(append(b, '\n'))
}

// Snapshot returns the retained finished spans, newest first. Concurrent
// writers may overwrite slots mid-walk; the snapshot is a diagnostic
// view, not a consistent cut.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	total := t.seq.Load()
	n := total
	if size := uint64(len(t.ring)); n > size {
		n = size
	}
	out := make([]SpanData, 0, n)
	for k := uint64(0); k < n; k++ {
		if p := t.ring[(total-1-k)%uint64(len(t.ring))].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// --- context plumbing ---------------------------------------------------

type ctxKey struct{}

// ContextWith returns ctx carrying span as the current span.
func ContextWith(ctx context.Context, span *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, span)
}

// FromContext returns the current span (nil when the request is not
// sampled or carries no trace).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan begins a child of the context's current span. On an
// unsampled context it returns (ctx, nil) untouched — the no-op fast
// path every instrumentation point takes when tracing is off.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tracer.newSpan(parent.traceID, parent.spanID, name, time.Now())
	return ContextWith(ctx, s), s
}

// StartRequest makes the root sampling decision for one inbound request
// and, when sampled, starts its root span: an inbound traceparent with
// the sampled flag set is always honored (continuing the upstream
// trace), an unsampled or absent traceparent falls back to head
// sampling with a fresh trace ID. Returns (ctx, nil) when the request
// is not traced. Safe on a nil Tracer.
func (t *Tracer) StartRequest(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var traceID, parentID string
	if upTrace, upSpan, sampled, ok := ParseTraceparent(traceparent); ok {
		if !sampled {
			// The upstream made the decision for the whole trace; a span
			// here would be an orphan the collector never asked for.
			return ctx, nil
		}
		traceID, parentID = upTrace, upSpan
	} else if t.sample() {
		traceID = newTraceID()
	} else {
		return ctx, nil
	}
	s := t.newSpan(traceID, parentID, name, time.Now())
	return ContextWith(ctx, s), s
}

// Retain is the tail half of the retention decision, made when a
// request StartRequest began at start has finished. It returns the root
// span to end: span itself when the request was sampled, a fresh
// root-only span (new trace ID, no children, no traceparent sent) when
// it was not but ran for at least Config.SlowThreshold, and nil when
// the request is not kept. The unkept path allocates nothing. Safe on a
// nil Tracer.
func (t *Tracer) Retain(span *Span, name string, start time.Time) *Span {
	if span != nil || t == nil || t.slow <= 0 || time.Since(start) < t.slow {
		return span
	}
	return t.newSpan(newTraceID(), "", name, start)
}

// --- cross-goroutine links ----------------------------------------------

// SpanContext is the portable identity of a span — what background work
// (the shadow-scoring queue) carries across goroutines instead of a
// context, so a worker can parent its spans under the request that
// enqueued the job after that request has finished.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the link refers to a sampled span.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" }

// LinkFromContext captures the current span's identity (zero when
// unsampled).
func LinkFromContext(ctx context.Context) SpanContext {
	s := FromContext(ctx)
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.spanID}
}

// StartLinked begins a span parented under a captured SpanContext,
// continuing its trace on another goroutine. Returns (ctx, nil) when
// the link is zero or the tracer nil.
func (t *Tracer) StartLinked(ctx context.Context, link SpanContext, name string) (context.Context, *Span) {
	if t == nil || !link.Valid() {
		return ctx, nil
	}
	s := t.newSpan(link.TraceID, link.SpanID, name, time.Now())
	return ContextWith(ctx, s), s
}

// --- W3C traceparent ----------------------------------------------------

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex>-<16 hex>-<2 hex>"), reporting the trace ID, the parent
// span ID, and whether the sampled flag is set. ok is false for
// malformed headers, unknown versions, and the invalid all-zero IDs.
func ParseTraceparent(h string) (traceID, spanID string, sampled, ok bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false, false
	}
	traceID, spanID = h[3:35], h[36:52]
	if !hexValid(traceID) || !hexValid(spanID) || allZero(traceID) || allZero(spanID) {
		return "", "", false, false
	}
	flags, err := hex.DecodeString(h[53:55])
	if err != nil {
		return "", "", false, false
	}
	return traceID, spanID, flags[0]&1 == 1, true
}

// FormatTraceparent renders a version-00 traceparent header.
func FormatTraceparent(traceID, spanID string, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + traceID + "-" + spanID + "-" + flags
}

func hexValid(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}
