// Command perfbench is the repository's benchmark: one seeded workload
// per run against the real serving stack (internal/server over a
// loopback listener) or the real training entry points, every output
// checked, end-to-end metrics from an untraced run and per-layer metrics
// from a traced replay. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload batch-plain --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	cdt "cdt"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the untraced run's metrics, emitted on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_points_per_s", "points/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"train_s", "s"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's metrics, emitted on every workload.
var perLayer = []metricSpec{
	{"server.http_self_us", "us"},
	{"server.request_self_us", "us"},
	{"server.session_push_self_us", "us"},
	{"server.response_bytes", "bytes"},
	{"trace.idle_overhead_us", "us"},
	{"cdt.detect_self_us.plain", "us"},
	{"cdt.detect_self_us.pyramid", "us"},
	{"cdt.scale_sweep_us.x1", "us"},
	{"cdt.scale_sweep_us.x4", "us"},
	{"cdt.scale_sweep_us.x16", "us"},
	{"cdt.fusion_decide_us", "us"},
	{"cdt.stream_push_ns_per_point.plain", "ns"},
	{"cdt.stream_push_ns_per_point.pyramid", "ns"},
	{"timeseries.normalize_ns_per_point", "ns"},
	{"timeseries.downsample_ns_per_point", "ns"},
	{"pattern.label_ns_per_point", "ns"},
	{"engine.sweep_ns_per_point", "ns"},
	{"engine.cursor_step_ns", "ns"},
	{"cdt.observations_ms", "ms"},
	{"core.build_ms", "ms"},
	{"rules.simplify_ms", "ms"},
	{"engine.compile_ms", "ms"},
	{"quality.evaluate_ms", "ms"},
	{"bayesopt.maximize_ms", "ms"},
	{"cdt.at_resolution_ms", "ms"},
	{"cdt.train_fusion_ms", "ms"},
	{"cdt.load_any_ms", "ms"},
	{"modelstore.current_models_ms", "ms"},
	{"engine.windows", "count"},
	{"cdt.fired_windows", "count"},
	{"cdt.fire_ratio", "ratio"},
	{"cdt.detections", "count"},
	{"cdt.scale_entries", "count"},
	{"bayesopt.evaluations", "count"},
	{"cdt.label_hit_ratio", "ratio"},
	{"cdt.window_hit_ratio", "ratio"},
	{"core.tree_nodes", "count"},
	{"rules.predicates", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles_per_kop", "count"},
}

var workloads = []string{"batch-plain", "batch-pyramid", "stream", "train"}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	sz       sizes
	outDir   string // run files: model store, span dumps
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is everything else a run reports: environment, sample counts,
// and the traced run's extras.
type detail struct {
	Workload      string    `json:"workload"`
	Seed          int64     `json:"seed"`
	Seconds       float64   `json:"seconds"`
	Trace         bool      `json:"trace"`
	Env           envRecord `json:"env"`
	LatencyCount  int       `json:"latency_samples"`
	Windows       int       `json:"windows"`
	WindowTput    []float64 `json:"window_throughput"`
	WindowP50     []float64 `json:"window_p50_ms"`
	WindowP90     []float64 `json:"window_p90_ms"`
	BeyondP90     int       `json:"min_window_samples_beyond_p90"`
	MeasuredOps   int       `json:"measured_ops"`
	SetupSamples  []float64 `json:"setup_s_samples"`
	TrainSamples  []float64 `json:"train_s_samples"`
	FirstError    string    `json:"first_error,omitempty"`
	UntracedP50Ms float64   `json:"untraced_loopback_p50_ms,omitempty"`
	TracedP50Ms   float64   `json:"traced_loopback_p50_ms,omitempty"`
	Spans         int       `json:"spans,omitempty"`
	SpanFile      string    `json:"span_file,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: batch-plain, batch-pyramid, stream or train")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "measured seconds")
	traced := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0 or 1\n", workloads)
		return 2
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traced == 1,
		sz:       fullSizes,
		outDir:   filepath.Join(".bench_build", "perfbench"),
	}
	res, det, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	report(stdout, res, det)
	return 0
}

func report(w io.Writer, res result, det detail) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: attempted %d failed %d correct %v\n",
		det.Workload, det.Seed, det.Trace, res.Attempted, res.Failed, res.Correct)
	specs := endToEnd
	if det.Trace {
		specs = perLayer
	}
	for _, s := range specs {
		m := res.Metrics[s.name]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", s.name, m.Value, m.Unit)
	}
	d, _ := json.Marshal(det) // plain data
	fmt.Fprintf(w, "detail %s\n", d)
	r, _ := json.Marshal(res) // plain data
	fmt.Fprintf(w, "%s\n", r)
}

// runWorkload runs one workload and assembles its result.
func runWorkload(o options) (result, detail, error) {
	det := detail{Workload: o.workload, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace, Env: newEnvRecord()}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, det, err
	}
	runDir, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return result{}, det, err
	}
	defer os.RemoveAll(runDir)
	var out *outcome
	if o.workload == "train" {
		out, err = runTrain(o, runDir, &det)
	} else {
		out, err = runServing(o, runDir, &det)
	}
	det.Env.LoopEnd = timeLoops()
	if err != nil {
		return result{}, det, err
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if out.err != nil {
		det.FirstError = out.err.Error()
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok {
			return result{}, det, fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, det, nil
}

// outcome is one workload's raw result.
type outcome struct {
	attempted, failed int
	err               error
	metrics           map[string]float64
}

func (o *outcome) absorb(attempted, failed int, err error) {
	o.attempted += attempted
	o.failed += failed
	if o.err == nil {
		o.err = err
	}
}

// latencyMetrics adds throughput and latency quantiles from a closed
// loop: each the median over the measured phase's windows. A window with
// fewer than ten samples beyond its p90 fails the run: its p90 would rest
// on too few samples.
func latencyMetrics(out *outcome, det *detail, res loopResult) error {
	if len(res.windows) == 0 {
		return errors.New("measured phase shorter than one window")
	}
	var tput, p50, p90 []float64
	det.BeyondP90 = math.MaxInt
	for _, w := range res.windows {
		q90 := quantile(w.latMs, 0.9)
		if b := beyond(w.latMs, q90); b < det.BeyondP90 {
			det.BeyondP90 = b
		}
		tput = append(tput, w.points/window.Seconds())
		p50 = append(p50, quantile(w.latMs, 0.5))
		p90 = append(p90, q90)
	}
	det.LatencyCount = len(res.latMs)
	det.Windows = len(res.windows)
	det.WindowTput, det.WindowP50, det.WindowP90 = tput, p50, p90
	det.MeasuredOps = res.measured
	if det.BeyondP90 < 10 {
		return fmt.Errorf("a window has only %d latency samples beyond its p90: too few to report it", det.BeyondP90)
	}
	out.metrics["throughput_points_per_s"] = median(tput)
	out.metrics["latency_p50_ms"] = median(p50)
	out.metrics["latency_p90_ms"] = median(p90)
	return nil
}

// allocMetrics adds the untraced phase's allocation counts per operation.
func allocMetrics(out *outcome, ops int, allocs, allocBytes uint64, gc uint32) {
	if ops < 1 {
		ops = 1
	}
	out.metrics["runtime.allocs_per_op"] = float64(allocs) / float64(ops)
	out.metrics["runtime.alloc_bytes_per_op"] = float64(allocBytes) / float64(ops)
	out.metrics["runtime.gc_cycles_per_kop"] = 1000 * float64(gc) / float64(ops)
}

// heapLiveMB forces a collection and reports the live heap. Callers drop
// the generator's buffers and the client's idle connections first and
// keep the serving stack referenced. Two cycles: objects parked in a
// sync.Pool survive the first one in its victim cache.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeTraining times reps trainings of the deployment, each from a
// collected heap, after the measured phase for the reason timeSetUps
// gives.
func timeTraining(reps int, td trainingData) ([]float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t := time.Now()
		if _, err := trainDeployment(td); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return times, nil
}

func runServing(o options, runDir string, det *detail) (*outcome, error) {
	td := prepData(o.sz)
	d, err := trainDeployment(td)
	if err != nil {
		return nil, err
	}
	storeDir := filepath.Join(runDir, "store")
	if err := publish(storeDir, d); err != nil {
		return nil, err
	}
	var bt *batchTraffic
	var stt *streamTraffic
	var feeds []streamFeed
	switch o.workload {
	case "batch-plain":
		bt, err = newBatchTraffic(d, calorieBodies(o.sz, o.seed))
	case "batch-pyramid":
		bt, err = newBatchTraffic(d, electricityBodies(o.sz, o.seed))
	case "stream":
		feeds = streamFeeds(o.sz, o.seed)
		stt, err = newStreamTraffic(d, feeds)
	}
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	st, ids, err := setUp(storeDir, c, feeds)
	if err != nil {
		return nil, err
	}
	defer st.close()
	var do op
	if bt != nil {
		do = bt.op(c, st.base)
	} else {
		do = stt.op(c, st.base, ids)
	}
	res := closedLoop(o.sz.warmup, o.seconds, do)
	out := &outcome{metrics: map[string]float64{}}
	out.absorb(res.attempted, res.failed, res.firstError)
	if err := latencyMetrics(out, det, res); err != nil {
		return nil, err
	}
	if !o.trace {
		if det.TrainSamples, err = timeTraining(o.sz.trainReps, td); err != nil {
			return nil, err
		}
		if det.SetupSamples, err = timeSetUps(o.sz.setupReps, storeDir, c, feeds); err != nil {
			return nil, err
		}
		out.metrics["train_s"] = median(det.TrainSamples)
		out.metrics["setup_s"] = median(det.SetupSamples)
		bt, stt, feeds, td, res = nil, nil, nil, trainingData{}, loopResult{}
		c.CloseIdleConnections()
		out.metrics["heap_live_mb"] = heapLiveMB()
		runtime.KeepAlive(st)
		return out, nil
	}
	allocMetrics(out, res.measured, res.allocs, res.allocBytes, res.gcCycles)
	idle, err := openStack(storeDir, newIdleTracer(), false)
	if err != nil {
		return nil, err
	}
	defer idle.close()
	r := newReplayer()
	t := httpTargets{c: c, st: st, idle: idle}
	if bt != nil {
		r.replayBatch(t, d, bt, o.sz.replayOps)
		series := bt.bodies[0].series
		r.batchSeries(d, series[:min(len(series), o.sz.replayFeeds)])
		r.streamSeries(d, series[:min(len(series), o.sz.replayFeeds)], o.sz.feedPushes/4)
	} else {
		var pick []int
		var series []*cdt.Series
		half := len(feeds) / 2
		for i := 0; i < o.sz.replayFeeds/2+o.sz.replayFeeds%2 && i < half; i++ {
			pick = append(pick, i, half+i)
			series = append(series, cdt.NewSeries("calorie-feed", feeds[i].values), cdt.NewSeries("electricity-feed", feeds[half+i].values))
		}
		r.replayStream(t, d, stt, pick, o.sz.replayOps)
		r.batchSeries(d, series)
	}
	r.setup(d, storeDir)
	r.train(o.sz, td.calorie, td.calorieEval, []candidate{{opts: calorieOpts, want: math.NaN()}}, td.elecFit, td.elecFusion, d.pyramid)
	return finishReplay(o, det, out, r, res)
}

// finishReplay merges the replay's metrics, checks span nesting, and
// writes the spans out.
func finishReplay(o options, det *detail, out *outcome, r *replayer, untraced loopResult) (*outcome, error) {
	out.absorb(0, r.failed, r.err)
	for k, v := range r.metrics() {
		out.metrics[k] = v
	}
	if _, err := selfTimes(r.spans); err != nil {
		return nil, err
	}
	det.UntracedP50Ms = quantile(untraced.latMs, 0.5)
	det.TracedP50Ms = median(r.samples["replay.loopback_ms"])
	det.Spans = len(r.spans)
	det.SpanFile = filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(det.SpanFile)
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Detail *detail `json:"detail"`
		Spans  []span  `json:"spans"`
	}{det, r.spans}); err != nil {
		f.Close()
		return nil, err
	}
	return out, f.Close()
}

func runTrain(o options, runDir string, det *detail) (*outcome, error) {
	in := makeTrainInputs(o.sz, o.seed)
	var ref *jobResult
	if o.sz == fullSizes {
		ref = &trainReference
	}
	jobs, err := runJobs(o.sz, in, o.seconds/2, ref)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	out.absorb(jobs.attempted, jobs.failed, jobs.firstError)
	det.TrainSamples = jobs.times
	d, err := saveDeployment(jobs.last.best, jobs.last.pyramid)
	if err != nil {
		return nil, err
	}
	storeDir := filepath.Join(runDir, "store")
	if err := publish(storeDir, d); err != nil {
		return nil, err
	}
	bt, err := newBatchTraffic(d, trainBody(in))
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	st, _, err := setUp(storeDir, c, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := closedLoop(o.sz.warmup, max(o.seconds/2, window), bt.op(c, st.base))
	out.absorb(res.attempted, res.failed, res.firstError)
	if err := latencyMetrics(out, det, res); err != nil {
		return nil, err
	}
	if !o.trace {
		if det.SetupSamples, err = timeSetUps(o.sz.setupReps, storeDir, c, nil); err != nil {
			return nil, err
		}
		out.metrics["setup_s"] = median(det.SetupSamples)
		out.metrics["train_s"] = median(jobs.times)
		bt, in, res = nil, trainInputs{}, loopResult{}
		c.CloseIdleConnections()
		out.metrics["heap_live_mb"] = heapLiveMB()
		runtime.KeepAlive(st)
		runtime.KeepAlive(jobs.last)
		return out, nil
	}
	allocMetrics(out, len(jobs.times), jobs.allocs, jobs.allocBytes, jobs.gcCycles)
	idle, err := openStack(storeDir, newIdleTracer(), false)
	if err != nil {
		return nil, err
	}
	defer idle.close()
	r := newReplayer()
	r.replayBatch(httpTargets{c: c, st: st, idle: idle}, d, bt, o.sz.replayOps)
	sample := in.validation[:min(len(in.validation), o.sz.replayFeeds)]
	r.batchSeries(d, sample)
	r.streamSeries(d, sample, o.sz.feedPushes/4)
	r.setup(d, storeDir)
	var cands []candidate
	for _, h := range jobs.last.opt.History {
		opts := cdt.Options{Omega: h.Omega, Delta: h.Delta}
		cands = append(cands, candidate{opts: opts, want: h.Score})
	}
	r.train(o.sz, in.train, in.validation, cands, in.elecFit, in.elecFusion, d.pyramid)
	return finishReplay(o, det, out, r, res)
}
