package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	cdt "cdt"
	"cdt/internal/modelstore"
	"cdt/internal/server"
	"cdt/internal/trace"
)

// publish writes the deployment's documents into a fresh store at dir
// and promotes them.
func publish(dir string, d deployment) error {
	st, err := modelstore.Open(dir)
	if err != nil {
		return err
	}
	for _, name := range []string{calorieName, pyramidName} {
		v, err := st.Publish(name, d.docs[name], "perfbench", "")
		if err != nil {
			return fmt.Errorf("publishing %s: %w", name, err)
		}
		if err := st.Promote(name, v.Version); err != nil {
			return fmt.Errorf("promoting %s: %w", name, err)
		}
	}
	return nil
}

// stack is one running cdtserve: store, server, and (unless in-process
// only) a loopback listener.
type stack struct {
	srv     *server.Server
	handler http.Handler
	hs      *http.Server
	served  chan error
	base    string
}

// openStack opens the store at dir and assembles the server over it at
// its defaults. listen brings a loopback listener up as well.
func openStack(dir string, tracer *trace.Tracer, listen bool) (*stack, error) {
	st, err := modelstore.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Store: st, Tracer: tracer})
	if err != nil {
		return nil, err
	}
	s := &stack{srv: srv, handler: srv.Handler()}
	if !listen {
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.hs = &http.Server{Handler: s.handler}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	return s, nil
}

// close stops the listener, waits for its serve loop, and releases the
// server's background goroutines.
func (s *stack) close() {
	if s.hs != nil {
		_ = s.hs.Close() // errors only report listener close races
		<-s.served
	}
	s.srv.Close()
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// post sends body and reads the whole response into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// serveInProcess runs one request through a handler without a socket.
func serveInProcess(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := newRecorder()
	req, _ := http.NewRequest(method, path, bytes.NewReader(body)) // constant method and path
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec.status, rec.body.Bytes()
}

// recorder is a minimal http.ResponseWriter for in-process serving.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func newRecorder() *recorder { return &recorder{header: http.Header{}, status: http.StatusOK} }

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(code int)        { r.status = code }

// createSession opens a stream session through the HTTP surface.
func createSession(do func(path string, body []byte) (int, []byte, error), f streamFeed) (string, error) {
	req, _ := json.Marshal(map[string]any{"model": f.model, "min": f.scale.Min, "max": f.scale.Max}) // plain map of basic values
	status, resp, err := do("/streams", req)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("create stream: status %d: %s", status, resp)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("create stream: bad response %q", resp)
	}
	return out.ID, nil
}

func loopbackDo(c *http.Client, base string) func(string, []byte) (int, []byte, error) {
	return func(path string, body []byte) (int, []byte, error) {
		var buf bytes.Buffer
		status, err := post(c, base+path, body, &buf)
		return status, buf.Bytes(), err
	}
}

func inProcessDo(h http.Handler) func(string, []byte) (int, []byte, error) {
	return func(path string, body []byte) (int, []byte, error) {
		status, b := serveInProcess(h, http.MethodPost, path, body)
		return status, b, nil
	}
}

// setUp brings one serving stack up: open the store, server.New (LoadAny
// plus engine compile), the loopback listener with one health check, and
// the stream sessions when feeds are given.
func setUp(dir string, c *http.Client, feeds []streamFeed) (*stack, []string, error) {
	s, err := openStack(dir, nil, true)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.Get(s.base + "/healthz")
	if err != nil {
		s.close()
		return nil, nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	ids := make([]string, len(feeds))
	do := loopbackDo(c, s.base)
	for i, f := range feeds {
		if ids[i], err = createSession(do, f); err != nil {
			s.close()
			return nil, nil, err
		}
	}
	return s, ids, nil
}

// timeSetUps times reps further set-ups of the serving stack, each from
// a collected heap and closed again. Runs call it after the measured
// phase, while both vCPUs are warm: timed at the start of a run, set-up
// caught a second vCPU that had not yet woken.
func timeSetUps(reps int, dir string, c *http.Client, feeds []streamFeed) ([]float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t := time.Now()
		s, _, err := setUp(dir, c, feeds)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t).Seconds())
		s.close()
		c.CloseIdleConnections()
	}
	return times, nil
}

// window is the length of the measured phase's windows. Throughput and
// latency quantiles are computed per window and reported as the median
// over windows, so a few seconds in which the host ran slow (a vCPU
// taken away, a neighbour's burst) do not move the run's figures.
const window = time.Second

// loopResult is what a closed loop measured.
type loopResult struct {
	latMs      []float64 // measured-phase latencies, sorted
	windows    []windowStats
	measured   int // operations in the measured phase
	attempted  int // every operation, warm-up included
	failed     int
	firstError error
	allocs     uint64 // runtime.MemStats deltas over the measured phase
	allocBytes uint64
	gcCycles   uint32
}

// op performs one closed-loop operation for a client: it returns the
// points scored, whether the operation is a latency sample, and its
// latency. A non-nil error counts the operation as failed.
type op func(client int) (points int, sample bool, lat time.Duration, err error)

// closedLoop runs clients callers, each sending its next request only
// after the previous reply, for warm-up and then the measured phase.
// Warm-up and measurement run back to back so both vCPUs stay busy into
// the timed window; an operation is a sample only when it both started
// and finished inside the measured phase.
func closedLoop(warmup, measure time.Duration, do op) loopResult {
	var phase atomic.Int32 // 0 warm-up, 1 measuring, 2 stop
	type sample struct {
		start, end time.Duration // since the measured phase began
		lat        float64       // ms; negative for an operation that is no latency sample
		points     int
	}
	type clientResult struct {
		samples            []sample
		measured, attempts int
		failed             int
		err                error
	}
	var start time.Time // written before phase 1 is stored
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			for {
				p0 := phase.Load()
				if p0 == 2 {
					return
				}
				var began time.Duration
				if p0 == 1 {
					began = time.Since(start)
				}
				pts, isSample, lat, err := do(c)
				r.attempts++
				if err != nil {
					r.failed++
					if r.err == nil {
						r.err = err
					}
				}
				if p0 == 1 && phase.Load() == 1 && err == nil {
					r.measured++
					smp := sample{start: began, end: time.Since(start), lat: -1, points: pts}
					if isSample {
						smp.lat = ms(lat)
					}
					r.samples = append(r.samples, smp)
				}
			}
		}(c)
	}
	time.Sleep(warmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	phase.Store(1)
	time.Sleep(measure)
	phase.Store(2)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	wg.Wait()
	out := loopResult{
		allocs:     after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
	}
	out.windows = make([]windowStats, int(elapsed/window))
	for _, r := range results {
		for _, smp := range r.samples {
			if smp.lat >= 0 {
				out.latMs = append(out.latMs, smp.lat)
			}
			if w := int(smp.end / window); w < len(out.windows) && smp.lat >= 0 {
				out.windows[w].latMs = append(out.windows[w].latMs, smp.lat)
			}
			// An operation's points count towards the windows its
			// interval overlaps, in proportion to the overlap, so a
			// window's throughput is not quantized to whole requests.
			span := float64(smp.end - smp.start)
			for w := int(smp.start / window); w <= int(smp.end/window) && w < len(out.windows); w++ {
				lo := max(smp.start, time.Duration(w)*window)
				hi := min(smp.end, time.Duration(w+1)*window)
				if span == 0 {
					out.windows[w].points += float64(smp.points)
				} else if hi > lo {
					out.windows[w].points += float64(smp.points) * float64(hi-lo) / span
				}
			}
		}
		out.measured += r.measured
		out.attempted += r.attempts
		out.failed += r.failed
		if out.firstError == nil {
			out.firstError = r.err
		}
	}
	sort.Float64s(out.latMs)
	for i := range out.windows {
		sort.Float64s(out.windows[i].latMs)
	}
	return out
}

// windowStats is one window of the measured phase.
type windowStats struct {
	points float64
	latMs  []float64 // sorted
}

// --- output checks -----------------------------------------------------

type wireRule struct {
	Index int `json:"index"`
}

type wireScale struct {
	Factor int        `json:"factor"`
	Window int        `json:"window"`
	Start  int        `json:"start"`
	End    int        `json:"end"`
	Rules  []wireRule `json:"rules"`
}

type wireDetection struct {
	Window int         `json:"window"`
	Start  int         `json:"start"`
	End    int         `json:"end"`
	Rules  []wireRule  `json:"rules"`
	Type   string      `json:"type"`
	Scales []wireScale `json:"scales"`
}

type wireBatch struct {
	Model   string `json:"model"`
	Results []struct {
		Name       string          `json:"name"`
		Detections []wireDetection `json:"detections"`
		Error      string          `json:"error"`
	} `json:"results"`
}

var errMismatch = errors.New("output check failed")

// validateBatch parses a batch response and compares every series'
// ranges, fired rule indices, type and per-scale breakdown with the
// in-process DetectExplained results in want.
func validateBatch(resp []byte, model string, want [][]cdt.WindowDetection) error {
	var got wireBatch
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Errorf("%w: decoding batch response: %v", errMismatch, err)
	}
	if got.Model != model || len(got.Results) != len(want) {
		return fmt.Errorf("%w: model %q with %d results, want %q with %d", errMismatch, got.Model, len(got.Results), model, len(want))
	}
	for i, r := range got.Results {
		if r.Error != "" {
			return fmt.Errorf("%w: series %d: %s", errMismatch, i, r.Error)
		}
		if len(r.Detections) != len(want[i]) {
			return fmt.Errorf("%w: series %d: %d detections, want %d", errMismatch, i, len(r.Detections), len(want[i]))
		}
		for j, d := range r.Detections {
			w := want[i][j]
			if d.Window != w.Window || d.Start != w.Start || d.End != w.End || d.Type != string(w.Type) ||
				!sameRules(d.Rules, w.Fired) || len(d.Scales) != len(w.Scales) {
				return fmt.Errorf("%w: series %d detection %d: got %+v", errMismatch, i, j, d)
			}
			for k, sd := range d.Scales {
				ws := w.Scales[k]
				if sd.Factor != ws.Factor || sd.Window != ws.Window || sd.Start != ws.Start || sd.End != ws.End || !sameRules(sd.Rules, ws.Fired) {
					return fmt.Errorf("%w: series %d detection %d scale %d: got %+v", errMismatch, i, j, k, sd)
				}
			}
		}
	}
	return nil
}

func sameRules(got []wireRule, want []cdt.FiredPredicate) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Index != want[i].Index {
			return false
		}
	}
	return true
}

// expectBatch computes the in-process reference for a body.
func expectBatch(a cdt.Artifact, b batchBody) ([][]cdt.WindowDetection, error) {
	want := make([][]cdt.WindowDetection, len(b.series))
	for i, s := range b.series {
		dets, err := a.DetectExplained(context.Background(), s)
		if err != nil {
			return nil, err
		}
		want[i] = dets
	}
	return want, nil
}

// validated remembers, per distinct request, the response bytes that
// passed a full check, so repeats are checked by a byte comparison.
type validated struct {
	mu    sync.Mutex
	bytes map[int][]byte
}

func newValidated() *validated { return &validated{bytes: map[int][]byte{}} }

// check compares resp with the validated bytes of key, running full on
// the first sight of key.
func (v *validated) check(key int, resp []byte, full func([]byte) error) error {
	v.mu.Lock()
	ok, seen := v.bytes[key]
	v.mu.Unlock()
	if seen {
		if !bytes.Equal(ok, resp) {
			return fmt.Errorf("%w: response to request %d differs from its validated bytes", errMismatch, key)
		}
		return nil
	}
	if err := full(resp); err != nil {
		return err
	}
	v.mu.Lock()
	v.bytes[key] = append([]byte(nil), resp...)
	v.mu.Unlock()
	return nil
}

// batchTraffic is a closed loop of batch detects over distinct bodies.
type batchTraffic struct {
	bodies []batchBody
	want   [][][]cdt.WindowDetection
	valid  *validated
}

func newBatchTraffic(d deployment, bodies []batchBody) (*batchTraffic, error) {
	t := &batchTraffic{bodies: bodies, valid: newValidated()}
	for _, b := range bodies {
		w, err := expectBatch(d.artifact(b.model), b)
		if err != nil {
			return nil, err
		}
		t.want = append(t.want, w)
	}
	return t, nil
}

func (t *batchTraffic) checkResponse(i int, resp []byte) error {
	b := t.bodies[i]
	return t.valid.check(i, resp, func(r []byte) error { return validateBatch(r, b.model, t.want[i]) })
}

// op returns the closed-loop operation: client c walks bodies c, c+2, ...
func (t *batchTraffic) op(c *http.Client, base string) op {
	next := make([]int, clients)
	bufs := make([]bytes.Buffer, clients)
	for i := range next {
		next[i] = i % len(t.bodies)
	}
	return func(client int) (int, bool, time.Duration, error) {
		i := next[client]
		next[client] = (i + clients) % len(t.bodies)
		b := t.bodies[i]
		start := time.Now()
		status, err := post(c, base+"/models/"+b.model+"/detect", b.json, &bufs[client])
		lat := time.Since(start)
		if err != nil {
			return 0, false, 0, err
		}
		if status != http.StatusOK {
			return 0, false, 0, fmt.Errorf("batch detect: status %d: %.200s", status, bufs[client].Bytes())
		}
		if err := t.checkResponse(i, bufs[client].Bytes()); err != nil {
			return 0, false, 0, err
		}
		return len(b.series) * len(b.series[0].Values), true, lat, nil
	}
}

// streamTraffic is a closed loop of pushes over sessions opened at
// set-up. Each session walks its feed in pushPoints chunks and is reset
// through /streams/{id}/reset when the feed ends, so every (session,
// chunk) response repeats exactly and is checked against an in-process
// stream driven with the same readings and resets.
type streamTraffic struct {
	feeds  []streamFeed
	pushes [][][]byte     // per session, per chunk: request body
	want   [][]streamWant // per session, per chunk: reference result
	valid  *validated
}

type streamWant struct {
	dets  []cdt.Detection
	ready bool
}

func newStreamTraffic(d deployment, feeds []streamFeed) (*streamTraffic, error) {
	t := &streamTraffic{feeds: feeds, valid: newValidated()}
	for _, f := range feeds {
		h, err := d.artifact(f.model).OpenStream(f.scale)
		if err != nil {
			return nil, err
		}
		var bodies [][]byte
		var wants []streamWant
		for lo := 0; lo < len(f.values); lo += pushPoints {
			chunk := f.values[lo : lo+pushPoints]
			body := append([]byte(`{"points":`), appendFloats(nil, chunk)...)
			bodies = append(bodies, append(body, '}'))
			var dets []cdt.Detection
			for _, v := range chunk {
				dets = append(dets, h.Push(v)...)
			}
			wants = append(wants, streamWant{dets: dets, ready: h.Ready()})
		}
		t.pushes = append(t.pushes, bodies)
		t.want = append(t.want, wants)
	}
	return t, nil
}

type wirePush struct {
	Detections []struct {
		WindowStart int        `json:"window_start"`
		WindowEnd   int        `json:"window_end"`
		Rules       []wireRule `json:"rules"`
		Scale       int        `json:"scale"`
		Type        string     `json:"type"`
	} `json:"detections"`
	PointsConsumed int  `json:"points_consumed"`
	Ready          bool `json:"ready"`
}

func validatePush(resp []byte, chunk int, want streamWant) error {
	var got wirePush
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Errorf("%w: decoding push response: %v", errMismatch, err)
	}
	if got.PointsConsumed != (chunk+1)*pushPoints || got.Ready != want.ready || len(got.Detections) != len(want.dets) {
		return fmt.Errorf("%w: push %d: consumed %d ready %v with %d detections, want %d %v %d", errMismatch, chunk,
			got.PointsConsumed, got.Ready, len(got.Detections), (chunk+1)*pushPoints, want.ready, len(want.dets))
	}
	for i, d := range got.Detections {
		w := want.dets[i]
		if d.WindowStart != w.WindowStart || d.WindowEnd != w.WindowEnd || d.Scale != w.Scale || d.Type != string(w.Type) || !sameRules(d.Rules, w.Fired) {
			return fmt.Errorf("%w: push %d detection %d: got %+v", errMismatch, chunk, i, d)
		}
	}
	return nil
}

func (t *streamTraffic) key(session, chunk int) int { return session*len(t.pushes[0]) + chunk }

func (t *streamTraffic) checkResponse(session, chunk int, resp []byte) error {
	return t.valid.check(t.key(session, chunk), resp, func(r []byte) error {
		return validatePush(r, chunk, t.want[session][chunk])
	})
}

// op returns the closed-loop operation: client c pushes round-robin over
// sessions c, c+2, ..., so no two callers share a session.
func (t *streamTraffic) op(c *http.Client, base string, ids []string) op {
	type cursor struct{ session, chunk int }
	var mine [][]cursor
	for cl := 0; cl < clients; cl++ {
		var cs []cursor
		for s := cl; s < len(ids); s += clients {
			cs = append(cs, cursor{session: s})
		}
		mine = append(mine, cs)
	}
	turn := make([]int, clients)
	bufs := make([]bytes.Buffer, clients)
	return func(client int) (int, bool, time.Duration, error) {
		cs := mine[client]
		cur := &cs[turn[client]]
		turn[client] = (turn[client] + 1) % len(cs)
		buf := &bufs[client]
		id := ids[cur.session]
		if cur.chunk == len(t.pushes[cur.session]) {
			cur.chunk = 0
			status, err := post(c, base+"/streams/"+id+"/reset", nil, buf)
			if err != nil {
				return 0, false, 0, err
			}
			if status != http.StatusNoContent {
				return 0, false, 0, fmt.Errorf("stream reset: status %d", status)
			}
			return 0, false, 0, nil
		}
		chunk := cur.chunk
		cur.chunk++
		start := time.Now()
		status, err := post(c, base+"/streams/"+id+"/points", t.pushes[cur.session][chunk], buf)
		lat := time.Since(start)
		if err != nil {
			return 0, false, 0, err
		}
		if status != http.StatusOK {
			return 0, false, 0, fmt.Errorf("stream push: status %d: %.200s", status, buf.Bytes())
		}
		if err := t.checkResponse(cur.session, chunk, buf.Bytes()); err != nil {
			return 0, false, 0, err
		}
		return pushPoints, true, lat, nil
	}
}
