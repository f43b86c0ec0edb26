package main

// The traced run. After the untraced phase, a fixed sample of the
// workload's own inputs is replayed through each layer's public calls,
// one span per call. Spans nest in time (a parent's interval encloses
// its children's) and also carry call_ns, the duration of the layer's
// own call; a layer's per-layer metric is its call minus its children's
// calls, as README.md defines them. Every layer
// is measured on every workload: the traffic reaches some layers, and
// the sample is pushed through the rest directly (a batch workload's
// series through both artifacts and the stream layers, a stream feed
// through the batch layers, each deployment's own training through the
// training layers).

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	cdt "cdt"
	"cdt/internal/bayesopt"
	"cdt/internal/core"
	"cdt/internal/engine"
	"cdt/internal/modelstore"
	"cdt/internal/pattern"
	"cdt/internal/rules"
	"cdt/internal/server"
	"cdt/internal/trace"
)

// span is one replayed call.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CallNs int64  `json:"call_ns"`
}

// replayer records spans and per-layer samples.
type replayer struct {
	t0     time.Time
	spans  []span
	traces int
	reps   int // repetitions of idempotent calls (fastest kept)

	samples map[string][]float64 // per-op values, reported as medians
	sums    map[string]float64   // ratio metrics: numerator and denominator sums
	engines map[*cdt.Model]*engine.Engine
	failed  int
	err     error
}

func newReplayer() *replayer {
	return &replayer{
		t0:      time.Now(),
		reps:    3,
		samples: map[string][]float64{},
		sums:    map[string]float64{},
		engines: map[*cdt.Model]*engine.Engine{},
	}
}

func (r *replayer) root(name string) int {
	r.traces++
	return r.begin(0, name)
}

func (r *replayer) begin(parent int, name string) int {
	trace := r.traces
	if parent > 0 {
		trace = r.spans[parent-1].Trace
	}
	r.spans = append(r.spans, span{Trace: trace, ID: len(r.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

func (r *replayer) end(id int, call time.Duration) {
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.t0))
	s.CallNs = int64(call)
}

func (r *replayer) add(name string, v float64)   { r.samples[name] = append(r.samples[name], v) }
func (r *replayer) sum(name string, v float64)   { r.sums[name] += v }
func (r *replayer) time(fn func()) time.Duration { return minOf(r.reps, fn) }

func (r *replayer) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

func (r *replayer) engine(m *cdt.Model) *engine.Engine {
	e, ok := r.engines[m]
	if !ok {
		e = engine.Compile(m.Rule(), m.Opts.Omega)
		r.engines[m] = e
	}
	return e
}

func patternConfig(o cdt.Options) pattern.Config {
	c := pattern.NewConfig(o.Delta)
	if o.Epsilon != 0 {
		c.Epsilon = o.Epsilon
	}
	return c
}

// --- batch layers ------------------------------------------------------

// detected is what one series' replay found, for the per-request counts.
type detected struct {
	windows, fired, detections, scaleEntries int
	call                                     time.Duration // DetectExplained
}

// detect replays DetectExplained on one raw series and the calls below
// it: ScoreRanges, then normalize, and per scale the resample, the scale
// model's ScoreRanges, label and sweep.
func (r *replayer) detect(parent int, a cdt.Artifact, s *cdt.Series) detected {
	var out detected
	ctx := context.Background()
	d := r.begin(parent, "cdt.detect_explained")
	pm, isPyramid := a.(*cdt.PyramidModel)
	var sweeps []float64
	var dets []cdt.WindowDetection
	out.call = r.time(func() {
		var per []float64
		c := ctx
		if isPyramid {
			per = make([]float64, pm.NumScales())
			c = cdt.WithScaleSweepObserver(ctx, func(i, _ int, sec float64) { per[i] = sec })
		}
		var err error
		if dets, err = a.DetectExplained(c, s); err != nil {
			r.fail(err)
		}
		if sweeps == nil || total(per) < total(sweeps) {
			sweeps = per
		}
	})
	out.detections = len(dets)
	for _, w := range dets {
		out.scaleEntries += len(w.Scales)
	}
	sr := r.begin(d, "cdt.score_ranges")
	var rs cdt.RangeStats
	srCall := r.time(func() {
		var err error
		if rs, err = a.ScoreRanges(ctx, s); err != nil {
			r.fail(err)
		}
	})
	if len(rs.Ranges) != len(dets) {
		r.fail(fmt.Errorf("%w: ScoreRanges found %d ranges, DetectExplained %d", errMismatch, len(rs.Ranges), len(dets)))
	}
	ns, normCall := r.normalize(sr, s)
	r.add("cdt.detect_self_us."+kindOf(a), us(out.call-srCall))
	if !isPyramid {
		m := a.(*cdt.Model)
		out.windows, out.fired = r.labelSweep(sr, m, ns.Values)
		r.end(sr, srCall)
		r.end(d, out.call)
		return out
	}
	var scales time.Duration
	for i, f := range pm.Scales() {
		ds := ns
		if f > 1 {
			rt := cdt.ResampleTransform{Factor: f, Aggregator: pm.Config.Aggregator}
			id := r.begin(sr, "timeseries.resample")
			call := r.time(func() {
				var err error
				if ds, err = rt.Apply([]*cdt.Series{ns}); err != nil {
					r.fail(err)
				}
			})
			r.end(id, call)
			r.sum("downsample.ns", float64(call))
			r.sum("downsample.points", float64(ns.Len()))
			scales += call
		}
		sm := pm.ScaleModel(i)
		id := r.begin(sr, "cdt.scale_score_ranges")
		call := r.time(func() {
			if _, err := sm.ScoreRanges(ctx, ds); err != nil {
				r.fail(err)
			}
		})
		w, fired := r.labelSweep(id, sm, ds.Values)
		r.end(id, call)
		scales += call
		if i == 0 {
			out.windows, out.fired = w, fired
		}
		r.add(fmt.Sprintf("cdt.scale_sweep_us.x%d", f), sweeps[i]*1e6)
	}
	r.add("cdt.fusion_decide_us", us(srCall-normCall-scales))
	r.end(sr, srCall)
	r.end(d, out.call)
	return out
}

func total(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func kindOf(a cdt.Artifact) string {
	if _, ok := a.(*cdt.PyramidModel); ok {
		return "pyramid"
	}
	return "plain"
}

// normalize times Series.Normalize on fresh clones and returns one.
func (r *replayer) normalize(parent int, s *cdt.Series) (*cdt.Series, time.Duration) {
	clones := make([]*cdt.Series, r.reps)
	for i := range clones {
		clones[i] = s.Clone()
	}
	id := r.begin(parent, "timeseries.normalize")
	k := 0
	call := r.time(func() {
		if _, err := clones[k].Normalize(); err != nil {
			r.fail(err)
		}
		k++
	})
	r.end(id, call)
	r.sum("normalize.ns", float64(call))
	r.sum("normalize.points", float64(s.Len()))
	return clones[0], call
}

// labelSweep times LabelSeriesInto and the compiled engine's Sweep over
// already-normalized values and returns windows swept and fired.
func (r *replayer) labelSweep(parent int, m *cdt.Model, values []float64) (windows, fired int) {
	pc := patternConfig(m.Opts)
	buf := make([]pattern.Label, 0, len(values))
	var labels []pattern.Label
	id := r.begin(parent, "pattern.label")
	call := r.time(func() {
		var err error
		if labels, err = pc.LabelSeriesInto(buf[:0], values); err != nil {
			r.fail(err)
		}
	})
	r.end(id, call)
	r.sum("label.ns", float64(call))
	r.sum("label.points", float64(len(values)))
	e := r.engine(m)
	var marks *engine.Marks
	id = r.begin(parent, "engine.sweep")
	call = r.time(func() { marks = e.Sweep(labels) })
	r.end(id, call)
	r.sum("sweep.ns", float64(call))
	r.sum("sweep.points", float64(len(values)))
	windows = marks.NumWindows()
	for w := 0; w < windows; w++ {
		if marks.Fired(w) {
			fired++
		}
	}
	return windows, fired
}

// --- stream layers -----------------------------------------------------

// streamChain drives one feed through Session.Push (a bare session
// manager), StreamHandle.Push, and, for plain models, Cursor.Step, all
// fed the same readings in pushPoints chunks.
type streamChain struct {
	sess   *server.Session
	handle cdt.StreamHandle
	cursor *engine.Cursor
	labels []pattern.Label
	kind   string
	n      int // readings pushed so far
}

func (r *replayer) newStreamChain(a cdt.Artifact, values []float64, scale cdt.Scale) (*streamChain, error) {
	sess, err := server.NewSessions(0, nil).Create(kindOf(a), a, scale, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	h, err := a.OpenStream(scale)
	if err != nil {
		return nil, err
	}
	c := &streamChain{sess: sess, handle: h, kind: kindOf(a)}
	if m, ok := a.(*cdt.Model); ok {
		c.cursor = r.engine(m).NewCursor()
		pc := patternConfig(m.Opts)
		norm := make([]float64, len(values))
		for i, v := range values {
			norm[i] = math.Min(1, math.Max(0, (v-scale.Min)/(scale.Max-scale.Min)))
		}
		for i := 1; i+1 < len(norm); i++ {
			c.labels = append(c.labels, pc.LabelPoint(norm[i-1], norm[i], norm[i+1]))
		}
	}
	return c, nil
}

// push replays one chunk under parent and returns the session's
// detections and its Session.Push call time.
func (r *replayer) push(parent int, c *streamChain, chunk []float64) ([]cdt.Detection, time.Duration) {
	p := r.begin(parent, "server.session_push")
	t := time.Now()
	got, _, _ := c.sess.Push(context.Background(), chunk)
	pushCall := time.Since(t)
	h := r.begin(p, "cdt.stream_push")
	var want []cdt.Detection
	t = time.Now()
	for _, v := range chunk {
		want = append(want, c.handle.Push(v)...)
	}
	handleCall := time.Since(t)
	if c.cursor != nil {
		// Label j needs readings j..j+2, so it is stepped once the
		// (j+3)th reading has arrived.
		lo, hi := max(c.n-2, 0), min(max(c.n+len(chunk)-2, 0), len(c.labels))
		id := r.begin(h, "engine.cursor_step")
		t = time.Now()
		for _, l := range c.labels[lo:hi] {
			c.cursor.Step(l)
		}
		call := time.Since(t)
		r.end(id, call)
		r.sum("cursor.ns", float64(call))
		r.sum("cursor.steps", float64(hi-lo))
	}
	c.n += len(chunk)
	r.end(h, handleCall)
	r.end(p, pushCall)
	if !sameDetections(got, want) {
		r.fail(fmt.Errorf("%w: Session.Push and StreamHandle.Push disagree", errMismatch))
	}
	r.add("server.session_push_self_us", us(pushCall-handleCall))
	r.sum("stream."+c.kind+".ns", float64(handleCall))
	r.sum("stream."+c.kind+".points", float64(len(chunk)))
	return got, pushCall
}

func sameDetections(a, b []cdt.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].WindowStart != b[i].WindowStart || a[i].WindowEnd != b[i].WindowEnd || a[i].Scale != b[i].Scale ||
			a[i].Type != b[i].Type || len(a[i].Fired) != len(b[i].Fired) {
			return false
		}
	}
	return true
}

// streamSeries pushes series through both artifacts' stream layers, at
// most maxPushes chunks each, outside any HTTP request.
func (r *replayer) streamSeries(d deployment, series []*cdt.Series, maxPushes int) {
	for _, s := range series {
		f := newFeed("", s.Values)
		for _, name := range []string{calorieName, pyramidName} {
			c, err := r.newStreamChain(d.artifact(name), s.Values, f.scale)
			if err != nil {
				r.fail(err)
				continue
			}
			root := r.root("replay.stream_series")
			for k := 0; k < maxPushes && (k+1)*pushPoints <= len(s.Values); k++ {
				r.push(root, c, s.Values[k*pushPoints:(k+1)*pushPoints])
			}
			r.end(root, 0)
		}
	}
}

// --- HTTP layers -------------------------------------------------------

// httpTargets are the stacks the replay drives: the untraced run's
// server through its listener and in process, and a twin with an idle
// tracer (sample rate 0) for the tracing layer's idle cost.
type httpTargets struct {
	c    *http.Client
	st   *stack
	idle *stack
}

// replayBatch replays requests of a batch traffic through every layer
// down from the loopback round trip.
func (r *replayer) replayBatch(t httpTargets, d deployment, bt *batchTraffic, n int) {
	for k := 0; k < n; k++ {
		i := k % len(bt.bodies)
		b := bt.bodies[i]
		path := "/models/" + b.model + "/detect"
		root := r.root("replay.batch_request")
		var resp []byte
		l := r.begin(root, "server.loopback")
		rtt := r.time(func() {
			var buf bytes.Buffer
			status, err := post(t.c, t.st.base+path, b.json, &buf)
			if err != nil || status != http.StatusOK {
				r.fail(fmt.Errorf("replay batch: status %d: %v", status, err))
			}
			resp = buf.Bytes()
		})
		h := r.begin(l, "server.serve_http")
		var inproc []byte
		sh := r.time(func() { _, inproc = serveInProcess(t.st.handler, http.MethodPost, path, b.json) })
		var de time.Duration
		var counts detected
		for _, s := range b.series {
			got := r.detect(h, d.artifact(b.model), s)
			de += got.call
			counts.windows += got.windows
			counts.fired += got.fired
			counts.detections += got.detections
			counts.scaleEntries += got.scaleEntries
		}
		r.end(h, sh)
		r.end(l, rtt)
		idle := r.begin(root, "trace.serve_http_idle")
		var traced []byte
		ic := r.time(func() { _, traced = serveInProcess(t.idle.handler, http.MethodPost, path, b.json) })
		r.end(idle, ic)
		r.end(root, 0)
		r.add("replay.loopback_ms", ms(rtt))
		r.add("server.http_self_us", us(rtt-sh))
		r.add("server.request_self_us", us(sh-de))
		r.add("trace.idle_overhead_us", us(ic-sh))
		r.add("server.response_bytes", float64(len(resp)))
		r.countOp(counts)
		if err := bt.checkResponse(i, resp); err != nil {
			r.fail(err)
		}
		if !bytes.Equal(resp, inproc) || !bytes.Equal(resp, traced) {
			r.fail(fmt.Errorf("%w: replayed batch responses differ between loopback, in-process and traced serving", errMismatch))
		}
	}
}

func (r *replayer) countOp(c detected) {
	r.add("engine.windows", float64(c.windows))
	r.add("cdt.fired_windows", float64(c.fired))
	r.add("cdt.detections", float64(c.detections))
	r.add("cdt.scale_entries", float64(c.scaleEntries))
	r.sum("fire.fired", float64(c.fired))
	r.sum("fire.windows", float64(c.windows))
}

// replayStream replays pushes of a stream traffic on fresh sessions, one
// per layer: loopback, in-process, idle tracer, the bare session and the
// stream handle, all fed the same chunks of the same feeds.
func (r *replayer) replayStream(t httpTargets, d deployment, stt *streamTraffic, feeds []int, pushes int) {
	for _, fi := range feeds {
		f := stt.feeds[fi]
		a := d.artifact(f.model)
		loop, err1 := createSession(loopbackDo(t.c, t.st.base), f)
		inproc, err2 := createSession(inProcessDo(t.st.handler), f)
		idle, err3 := createSession(inProcessDo(t.idle.handler), f)
		chain, err4 := r.newStreamChain(a, f.values, f.scale)
		if err := firstErr(err1, err2, err3, err4); err != nil {
			r.fail(err)
			continue
		}
		for k := 0; k < pushes && k < len(stt.pushes[fi]); k++ {
			body := stt.pushes[fi][k]
			chunk := f.values[k*pushPoints : (k+1)*pushPoints]
			root := r.root("replay.stream_push")
			l := r.begin(root, "server.loopback")
			var buf bytes.Buffer
			t0 := time.Now()
			status, err := post(t.c, t.st.base+"/streams/"+loop+"/points", body, &buf)
			rtt := time.Since(t0)
			if err != nil || status != http.StatusOK {
				r.fail(fmt.Errorf("replay push: status %d: %v", status, err))
			}
			h := r.begin(l, "server.serve_http")
			t0 = time.Now()
			_, inBody := serveInProcess(t.st.handler, http.MethodPost, "/streams/"+inproc+"/points", body)
			sh := time.Since(t0)
			dets, pushCall := r.push(h, chain, chunk)
			r.end(h, sh)
			r.end(l, rtt)
			ib := r.begin(root, "trace.serve_http_idle")
			t0 = time.Now()
			_, idleBody := serveInProcess(t.idle.handler, http.MethodPost, "/streams/"+idle+"/points", body)
			ic := time.Since(t0)
			r.end(ib, ic)
			r.end(root, 0)
			r.add("replay.loopback_ms", ms(rtt))
			r.add("server.http_self_us", us(rtt-sh))
			r.add("server.request_self_us", us(sh-pushCall))
			r.add("trace.idle_overhead_us", us(ic-sh))
			r.add("server.response_bytes", float64(buf.Len()))
			windows := streamWindows((k+1)*pushPoints, a.Info().Omega) - streamWindows(k*pushPoints, a.Info().Omega)
			r.countOp(detected{windows: windows, fired: len(dets), detections: len(dets)})
			if err := stt.checkResponse(fi, k, buf.Bytes()); err != nil {
				r.fail(err)
			}
			if !bytes.Equal(buf.Bytes(), inBody) || !bytes.Equal(buf.Bytes(), idleBody) {
				r.fail(fmt.Errorf("%w: replayed push responses differ between loopback, in-process and traced serving", errMismatch))
			}
		}
	}
}

// streamWindows mirrors the server's count of windows a stream of n
// points has completed.
func streamWindows(points, omega int) int {
	if w := points - omega; w > 0 {
		return w
	}
	return 0
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batchSeries runs series through both artifacts' batch layers outside
// any request.
func (r *replayer) batchSeries(d deployment, series []*cdt.Series) {
	for _, s := range series {
		for _, name := range []string{calorieName, pyramidName} {
			root := r.root("replay.batch_series")
			r.detect(root, d.artifact(name), s)
			r.end(root, 0)
		}
	}
}

// --- set-up and training layers ----------------------------------------

// setup replays the serving set-up's loads: LoadAny per artifact and the
// store's CurrentModels.
func (r *replayer) setup(d deployment, dir string) {
	root := r.root("replay.setup")
	for _, name := range []string{calorieName, pyramidName} {
		id := r.begin(root, "cdt.load_any")
		call := r.time(func() {
			if _, err := cdt.LoadAny(bytes.NewReader(d.docs[name])); err != nil {
				r.fail(err)
			}
		})
		r.end(id, call)
		r.add("cdt.load_any_ms", ms(call))
	}
	st, err := modelstore.Open(dir)
	if err != nil {
		r.fail(err)
		r.end(root, 0)
		return
	}
	id := r.begin(root, "modelstore.current_models")
	call := r.time(func() {
		if _, _, err := st.CurrentModels(); err != nil {
			r.fail(err)
		}
	})
	r.end(id, call)
	r.add("modelstore.current_models_ms", ms(call))
	r.end(root, 0)
}

// candidate is one (ω, δ) the training replay evaluates, with the score
// the untraced run reported for it (NaN when there is none to compare).
type candidate struct {
	opts cdt.Options
	want float64
}

func coreOptions(o cdt.Options) core.Options {
	return core.Options{Criterion: o.Criterion, Match: o.Match, MaxCompositionLen: o.MaxCompositionLen,
		MaxDepth: o.MaxDepth, MinGain: o.MinGain, Parallelism: o.Parallelism}
}

// fit replays one candidate's training on corpus c: observations, tree
// build, rule simplification and engine compile; with eval set, the
// candidate's F(h) on it as well.
func (r *replayer) fit(parent int, c, eval *cdt.Corpus, cand candidate) {
	o := cand.opts
	id := r.begin(parent, "cdt.observations")
	t := time.Now()
	obs, err := c.Observations(o)
	call := time.Since(t)
	r.end(id, call)
	if err != nil {
		r.fail(err)
		return
	}
	r.add("cdt.observations_ms", ms(call))
	id = r.begin(parent, "core.build")
	t = time.Now()
	tree, err := core.Build(obs, coreOptions(o))
	call = time.Since(t)
	r.end(id, call)
	if err != nil {
		r.fail(err)
		return
	}
	r.add("core.build_ms", ms(call))
	r.add("core.tree_nodes", float64(tree.Stats().Nodes))
	raw := rules.FromTree(tree, o.LeafPolicy)
	var simple rules.Rule
	id = r.begin(parent, "rules.simplify")
	call = r.time(func() { simple = rules.Simplify(raw) })
	r.end(id, call)
	r.add("rules.simplify_ms", ms(call))
	r.add("rules.predicates", float64(simple.Count()))
	id = r.begin(parent, "engine.compile")
	call = r.time(func() { engine.Compile(simple, o.Omega) })
	r.end(id, call)
	r.add("engine.compile_ms", ms(call))
	if eval == nil {
		return
	}
	m, err := c.Fit(o)
	if err != nil {
		r.fail(err)
		return
	}
	if m.NumRules() != simple.Count() {
		r.fail(fmt.Errorf("%w: replayed (ω=%d, δ=%d) gave %d rules, Fit %d", errMismatch, o.Omega, o.Delta, simple.Count(), m.NumRules()))
	}
	id = r.begin(parent, "quality.evaluate")
	t = time.Now()
	rep, err := m.EvaluateCorpus(eval)
	call = time.Since(t)
	r.end(id, call)
	if err != nil {
		r.fail(err)
		return
	}
	r.add("quality.evaluate_ms", ms(call))
	if !math.IsNaN(cand.want) && rep.FH != cand.want {
		r.fail(fmt.Errorf("%w: replayed (ω=%d, δ=%d) scored %v, the search %v", errMismatch, o.Omega, o.Delta, rep.FH, cand.want))
	}
}

// train replays a calorie search's candidates on fresh corpora, the
// pyramid's per-resolution training and fusion fit, and the optimizer
// itself on a zero-cost objective.
func (r *replayer) train(sz sizes, trainSeries, evalSeries []*cdt.Series, cands []candidate, fit, fusion *cdt.Series, wantPyramid *cdt.PyramidModel) {
	tc, err1 := cdt.NewCorpus(trainSeries)
	ec, err2 := cdt.NewCorpus(evalSeries)
	if err := firstErr(err1, err2); err != nil {
		r.fail(err)
		return
	}
	for _, cand := range cands {
		root := r.root("replay.candidate")
		r.fit(root, tc, ec, cand)
		r.end(root, 0)
	}
	st := tc.Stats()
	r.add("cdt.label_hit_ratio", ratio(st.LabelHits, st.LabelMisses))
	r.add("cdt.window_hit_ratio", ratio(st.WindowHits, st.WindowMisses))

	root := r.root("replay.pyramid")
	pc, err := cdt.NewCorpus([]*cdt.Series{fit})
	if err != nil {
		r.fail(err)
		return
	}
	for _, f := range pyramidCfg.Factors {
		var rc *cdt.Corpus
		id := r.begin(root, "cdt.at_resolution")
		t := time.Now()
		rc, err := pc.AtResolution(f, pyramidCfg.Aggregator)
		call := time.Since(t)
		if err != nil {
			r.fail(err)
			r.end(id, call)
			continue
		}
		if f > 1 {
			r.add("cdt.at_resolution_ms", ms(call))
		}
		r.fit(id, rc, nil, candidate{opts: pyramidOpts, want: math.NaN()})
		r.end(id, call)
	}
	pm, err := pc.FitPyramid(pyramidOpts, pyramidCfg)
	if err != nil {
		r.fail(err)
		r.end(root, 0)
		return
	}
	id := r.begin(root, "cdt.train_fusion")
	t := time.Now()
	err = pm.TrainFusion([]*cdt.Series{fusion})
	call := time.Since(t)
	r.end(id, call)
	r.end(root, 0)
	if err != nil {
		r.fail(err)
		return
	}
	r.add("cdt.train_fusion_ms", ms(call))
	if got, want := pm.Info().Fusion, wantPyramid.Info().Fusion; got != want {
		r.fail(fmt.Errorf("%w: replayed fusion %s, served %s", errMismatch, got, want))
	}

	space := bayesopt.Space{{Name: "omega", Min: 3, Max: 31}, {Name: "delta", Min: 1, Max: 21}}
	zero := func(x []int) float64 { return -float64((x[0]-17)*(x[0]-17) + (x[1]-11)*(x[1]-11)) }
	var res bayesopt.Result
	id = r.root("bayesopt.maximize")
	call = r.time(func() {
		var err error
		res, err = bayesopt.Maximize(zero, space, bayesopt.Options{
			InitPoints: sz.initPoints, Iterations: sz.iterations, Seed: searchSeed, LengthScale: 0.2,
		})
		if err != nil {
			r.fail(err)
		}
	})
	r.end(id, call)
	r.add("bayesopt.maximize_ms", ms(call))
	r.add("bayesopt.evaluations", float64(res.Evaluations))
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// --- results -----------------------------------------------------------

// metrics turns the samples into the per-layer metric set.
func (r *replayer) metrics() map[string]float64 {
	out := map[string]float64{}
	for name, xs := range r.samples {
		out[name] = median(xs)
	}
	per := func(num, den string) float64 {
		if r.sums[den] == 0 {
			return 0
		}
		return r.sums[num] / r.sums[den]
	}
	out["timeseries.normalize_ns_per_point"] = per("normalize.ns", "normalize.points")
	out["timeseries.downsample_ns_per_point"] = per("downsample.ns", "downsample.points")
	out["pattern.label_ns_per_point"] = per("label.ns", "label.points")
	out["engine.sweep_ns_per_point"] = per("sweep.ns", "sweep.points")
	out["engine.cursor_step_ns"] = per("cursor.ns", "cursor.steps")
	out["cdt.stream_push_ns_per_point.plain"] = per("stream.plain.ns", "stream.plain.points")
	out["cdt.stream_push_ns_per_point.pyramid"] = per("stream.pyramid.ns", "stream.pyramid.points")
	out["cdt.fire_ratio"] = per("fire.fired", "fire.windows")
	return out
}

// selfTimes checks that spans nest in time and returns each span's self
// time: its interval minus the part its children cover.
func selfTimes(spans []span) (map[int]int64, error) {
	byID := map[int]*span{}
	children := map[int][]*span{}
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return nil, fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if p.Trace != s.Trace || s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		children[p.ID] = append(children[p.ID], s)
	}
	self := map[int]int64{}
	for id, s := range byID {
		cs := children[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo := max(c.Start, reach)
			if c.End > lo {
				covered += c.End - lo
				reach = c.End
			}
		}
		self[id] = s.End - s.Start - covered
		if self[id] < 0 {
			return nil, fmt.Errorf("span %d (%s) has negative self time", id, s.Name)
		}
	}
	return self, nil
}

// newIdleTracer is the tracer the idle-overhead twin runs with: present,
// sampling nothing.
func newIdleTracer() *trace.Tracer { return trace.New(trace.Config{SampleRate: 0}) }
