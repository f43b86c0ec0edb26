package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	cdt "cdt"
	"cdt/internal/trace"
)

// Sessions manages live streaming-detection sessions. Stream handles
// (cdt.Stream, cdt.PyramidStream) are not safe for concurrent use (each
// owns incremental cursors over its model's shared read-only rule
// engines), so each session wraps its
// stream in a mutex; the manager itself guards the id→session map and
// evicts sessions that have been idle longer than the TTL (a monitor
// that silently went away must not leak its cursor state forever).
type Sessions struct {
	ttl time.Duration
	tel *serverMetrics // nil in unit tests that build Sessions bare

	mu sync.Mutex
	m  map[string]*Session

	stop chan struct{}
	once sync.Once
}

// Session is one live stream handle. All stream access goes through
// Push/Reset, which serialize on the session mutex.
type Session struct {
	ID    string
	Model string // registry name the stream was created from
	Omega int
	tel   *serverMetrics // nil in unit tests that build Sessions bare

	served *servedModel // registry record: attribution and drift; nil in bare sessions
	drift  *drift       // nil disables drift tracking (bare sessions)

	mu       sync.Mutex
	stream   cdt.StreamHandle
	lastUsed time.Time

	// Shadow mirroring: when a candidate was shadowing this model at
	// session-creation time, every pushed point also feeds a candidate
	// stream and per-push detections are compared. Sessions created
	// before a shadow starts do not mirror (the candidate would join
	// mid-stream with a cold cursor and disagree spuriously). The handle
	// is kind-generic: a pyramid candidate mirrors through its
	// PyramidStream just as a plain one does through its Stream.
	shadow       *Shadow
	shadowStream cdt.StreamHandle
}

// NewSessions starts a session manager; ttl <= 0 disables eviction. The
// janitor wakes at ttl/4 so an idle session lives at most ~1.25·ttl.
// tel (which may be nil) receives eviction counts and Push latencies.
func NewSessions(ttl time.Duration, tel *serverMetrics) *Sessions {
	s := &Sessions{ttl: ttl, tel: tel, m: make(map[string]*Session), stop: make(chan struct{})}
	if ttl > 0 {
		go s.janitor()
	}
	return s
}

func (s *Sessions) janitor() {
	tick := s.ttl / 4
	if tick <= 0 {
		tick = s.ttl
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			s.evictIdle(now)
		}
	}
}

// evictIdle removes sessions idle longer than the TTL.
func (s *Sessions) evictIdle(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, sess := range s.m {
		sess.mu.Lock()
		idle := now.Sub(sess.lastUsed)
		sess.mu.Unlock()
		if idle > s.ttl {
			delete(s.m, id)
			if s.tel != nil {
				s.tel.sessionsEvicted.Inc()
			}
		}
	}
}

// Close stops the eviction janitor. Live sessions are simply dropped.
func (s *Sessions) Close() {
	s.once.Do(func() { close(s.stop) })
}

// newSessionID returns a random 128-bit hex id.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade loudly.
		panic(fmt.Sprintf("server: session id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Create opens a stream on model (named name in the registry) and
// registers it. The session pins the model it was created with, so a
// registry reload, promote or rollback does not disturb live streams;
// once served (the registry record model came from) is replaced, the
// session's readings stop feeding drift. shadow, drift, and served may
// be nil (bare sessions, or no candidate shadowing at creation time).
func (s *Sessions) Create(name string, model cdt.Artifact, scale cdt.Scale, shadow *Shadow, drift *drift, served *servedModel) (*Session, error) {
	stream, err := model.OpenStream(scale)
	if err != nil {
		return nil, err
	}
	var shadowStream cdt.StreamHandle
	if shadow != nil {
		shadowStream, err = shadow.candidate.OpenStream(scale)
		if err != nil {
			// The candidate cannot stream at this scale; serve without
			// mirroring rather than failing the session.
			shadow = nil
		}
	}
	var omega int
	if served != nil {
		omega = served.info.Omega
	} else {
		omega = model.Info().Omega // a bare session has no record to read it from
	}
	sess := &Session{
		ID:           newSessionID(),
		Model:        name,
		Omega:        omega,
		tel:          s.tel,
		served:       served,
		drift:        drift,
		stream:       stream,
		shadow:       shadow,
		shadowStream: shadowStream,
		lastUsed:     time.Now(),
	}
	s.mu.Lock()
	s.m[sess.ID] = sess
	s.mu.Unlock()
	return sess, nil
}

// Get resolves a session by id.
func (s *Sessions) Get(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.m[id]
	return sess, ok
}

// Delete removes a session, reporting whether it existed.
func (s *Sessions) Delete(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[id]
	delete(s.m, id)
	return ok
}

// Len returns the number of live sessions.
func (s *Sessions) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Push feeds values through the session's stream in order and returns
// every detection they produced, tagged with the number of points the
// stream had consumed when the detection fired. When a candidate is
// mirroring the session, the same points feed its stream synchronously
// (the incremental cursor is O(1) per point) and the per-push detection
// ranges are compared into the shadow counters; the drift tracker sees
// every completed window either way. ctx carries the request's trace
// decision (a sampled request gets a session_push span, including any
// wait on the session mutex) and its request ID for drift log lines.
func (sess *Session) Push(ctx context.Context, values []float64) ([]cdt.Detection, int, bool) {
	start := time.Now()
	_, span := trace.StartSpan(ctx, "session_push")
	if span != nil {
		span.SetAttr("session", sess.ID)
		span.SetAttr("points", fmt.Sprintf("%d", len(values)))
		defer span.End()
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	pointsBefore := sess.stream.Points()
	var out []cdt.Detection
	for _, v := range values {
		out = append(out, sess.stream.Push(v)...)
	}
	windows := windowCount(sess.stream.Points(), sess.Omega) -
		windowCount(pointsBefore, sess.Omega)
	if sess.shadow != nil {
		var candDets []cdt.Detection
		for _, v := range values {
			candDets = append(candDets, sess.shadowStream.Push(v)...)
		}
		agree, incOnly, candOnly := compareRanges(detectionRanges(out), detectionRanges(candDets))
		sess.shadow.record(windows, agree, incOnly, candOnly)
	}
	if m := sess.served; m != nil {
		var ruleCounts []uint64
		if len(out) > 0 {
			ruleCounts = m.newCounts()
			for _, d := range out {
				m.tally(ruleCounts, d.Scale, d.Fired)
				m.countType(d.Type)
			}
			m.apply(ruleCounts)
		}
		if sess.drift != nil {
			sess.drift.observe(ctx, m, windows, len(out), ruleCounts)
		}
	}
	sess.lastUsed = time.Now()
	if sess.tel != nil {
		// Includes any wait on the session mutex: an operator alerting on
		// push latency cares about time-to-result, not just scoring.
		sess.tel.pushLatency.Observe(time.Since(start).Seconds())
	}
	return out, sess.stream.Points(), sess.stream.Ready()
}

// windowCount is the number of ω-windows n readings make, in a batch
// series or a stream since its last reset: n readings make n−2
// transition labels, and those make n−ω−1 windows.
func windowCount(points, omega int) int {
	return max(points-omega-1, 0)
}

// detectionRanges projects stream detections to their point ranges for
// the shadow comparison.
func detectionRanges(dets []cdt.Detection) [][2]int {
	if len(dets) == 0 {
		return nil
	}
	out := make([][2]int, len(dets))
	for i, d := range dets {
		out[i] = [2]int{d.WindowStart, d.WindowEnd}
	}
	return out
}

// Reset clears the stream state (and any mirrored candidate stream),
// keeping model and scale.
func (sess *Session) Reset() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.stream.Reset()
	if sess.shadowStream != nil {
		sess.shadowStream.Reset()
	}
	sess.lastUsed = time.Now()
}
