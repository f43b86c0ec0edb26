package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	h := FormatTraceparent("4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7", true)
	traceID, spanID, sampled, ok := ParseTraceparent(h)
	if !ok || !sampled {
		t.Fatalf("ParseTraceparent(%q) = ok=%v sampled=%v", h, ok, sampled)
	}
	if traceID != "4bf92f3577b34da6a3ce929d0e0e4736" || spanID != "00f067aa0ba902b7" {
		t.Fatalf("round trip lost ids: %q %q", traceID, spanID)
	}
	if _, _, sampled, ok = ParseTraceparent(FormatTraceparent(traceID, spanID, false)); !ok || sampled {
		t.Fatalf("unsampled flag did not round-trip (ok=%v sampled=%v)", ok, sampled)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-short-span-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // unknown version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e473X-00f067aa0ba902b7-01", // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // bad flags
	}
	for _, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted a malformed header", h)
		}
	}
}

func TestSampleRateExact(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want int // sampled out of 1000
	}{
		{0, 0},
		{1, 1000},
		{0.5, 500},
	} {
		tr := New(Config{SampleRate: tc.rate})
		n := 0
		for i := 0; i < 1000; i++ {
			if _, s := tr.StartRequest(context.Background(), "request", ""); s != nil {
				n++
			}
		}
		if n != tc.want {
			t.Errorf("rate %g: sampled %d/1000, want %d (deterministic accumulator)", tc.rate, n, tc.want)
		}
	}
}

func TestInboundTraceparentOverridesSampling(t *testing.T) {
	tr := New(Config{SampleRate: 0})
	up := FormatTraceparent("4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7", true)
	ctx, s := tr.StartRequest(context.Background(), "request", up)
	if s == nil {
		t.Fatal("sampled inbound traceparent was not honored at rate 0")
	}
	if s.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id not continued: %q", s.TraceID())
	}
	if FromContext(ctx) != s {
		t.Fatal("root span not threaded through the context")
	}
	// The unsampled flag is a decision, not an absence: never trace.
	if _, s := tr.StartRequest(context.Background(), "request",
		FormatTraceparent("4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7", false)); s != nil {
		t.Fatal("unsampled inbound traceparent started a span")
	}
}

func TestSpanParentLinksAndRing(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	ctx, root := tr.StartRequest(context.Background(), "request", "")
	ctx, child := StartSpan(ctx, "detect")
	_, grand := StartSpan(ctx, "engine_sweep")
	grand.SetAttr("windows", "42")
	grand.End()
	child.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("ring holds %d spans, want 3", len(spans))
	}
	// Newest first: root ended last.
	if spans[0].Name != "request" || spans[1].Name != "detect" || spans[2].Name != "engine_sweep" {
		t.Fatalf("snapshot order = %s, %s, %s; want request, detect, engine_sweep",
			spans[0].Name, spans[1].Name, spans[2].Name)
	}
	for _, sd := range spans {
		if sd.TraceID != root.TraceID() {
			t.Fatalf("span %q left the trace: %q vs %q", sd.Name, sd.TraceID, root.TraceID())
		}
	}
	if spans[1].ParentID != root.SpanID() || spans[2].ParentID != child.SpanID() {
		t.Fatal("parent links broken")
	}
	if spans[2].Attrs["windows"] != "42" {
		t.Fatalf("attrs lost: %v", spans[2].Attrs)
	}
}

func TestRingBoundedNewestFirst(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	const written = ringSize + 4
	for i := 0; i < written; i++ {
		_, s := tr.StartRequest(context.Background(), "request", "")
		s.SetAttr("i", strconv.Itoa(i))
		s.End()
	}
	spans := tr.Snapshot()
	if len(spans) != ringSize {
		t.Fatalf("ring holds %d spans, want %d", len(spans), ringSize)
	}
	for k, sd := range spans {
		if want := strconv.Itoa(written - 1 - k); sd.Attrs["i"] != want {
			t.Fatalf("snapshot[%d] = %q, want %q (newest first)", k, sd.Attrs["i"], want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartRequest(context.Background(), "request", "")
	if s != nil {
		t.Fatal("nil tracer produced a span")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer produced a snapshot")
	}
	_, s = StartSpan(ctx, "child")
	s.SetAttr("k", "v") // all must no-op without panicking
	s.End()
	if s.TraceID() != "" || s.SpanID() != "" || s.Traceparent() != "" {
		t.Fatal("nil span leaked identity")
	}
	if LinkFromContext(ctx).Valid() {
		t.Fatal("unsampled context produced a valid link")
	}
}

func TestStartLinked(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	ctx, root := tr.StartRequest(context.Background(), "request", "")
	link := LinkFromContext(ctx)
	root.End()
	_, s := tr.StartLinked(context.Background(), link, "shadow_score")
	if s == nil {
		t.Fatal("valid link did not start a span")
	}
	s.End()
	spans := tr.Snapshot()
	if spans[0].TraceID != root.TraceID() || spans[0].ParentID != root.SpanID() {
		t.Fatalf("linked span not parented under the enqueuing request: %+v", spans[0])
	}
	if _, s := tr.StartLinked(context.Background(), SpanContext{}, "x"); s != nil {
		t.Fatal("zero link started a span")
	}
}

func TestJSONLExport(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{SampleRate: 1, Export: &buf})
	ctx, root := tr.StartRequest(context.Background(), "request", "")
	_, child := StartSpan(ctx, "detect")
	child.End()
	root.End()

	sc := bufio.NewScanner(&buf)
	var names []string
	for sc.Scan() {
		var sd SpanData
		if err := json.Unmarshal(sc.Bytes(), &sd); err != nil {
			t.Fatalf("export line is not JSON: %v (%q)", err, sc.Text())
		}
		names = append(names, sd.Name)
	}
	if strings.Join(names, ",") != "detect,request" {
		t.Fatalf("exported %v, want [detect request] in end order", names)
	}
}

// TestSpanRingHammer drives concurrent StartRequest/StartSpan/End
// against concurrent Snapshot and export — the -race target for the
// lock-free ring (make test-hammer).
func TestSpanRingHammer(t *testing.T) {
	var buf syncDiscard
	tr := New(Config{SampleRate: 1, Export: &buf})
	const (
		writers = 8
		readers = 2
		rounds  = 500
	)
	var writersWG, readersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < rounds; i++ {
				ctx, root := tr.StartRequest(context.Background(), "request", "")
				_, child := StartSpan(ctx, "detect")
				child.SetAttr("round", "x")
				child.End()
				root.End()
			}
		}()
	}
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, sd := range tr.Snapshot() {
					if sd.TraceID == "" || sd.SpanID == "" {
						t.Error("snapshot surfaced a half-written span")
						return
					}
				}
			}
		}()
	}
	writersWG.Wait()
	close(done)
	readersWG.Wait()
	if got := tr.seq.Load(); got != writers*rounds*2 {
		t.Fatalf("ring recorded %d spans, want %d", got, writers*rounds*2)
	}
}

// syncDiscard is an io.Writer safe for concurrent use (the hammer's
// export sink).
type syncDiscard struct{ mu sync.Mutex }

func (d *syncDiscard) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(p), nil
}
