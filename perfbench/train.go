package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	cdt "cdt"
	"cdt/internal/datasets/sge"
)

// trainInputs is the train workload's fixed training problem: calorie
// sensors split into a training and a validation corpus, and two years
// of hourly electricity (pyramid fit, then fusion fit). --seed only
// rescales the readings by a power of two, which min-max normalization
// undoes bit for bit, so every seed runs the same search and must reach
// the same committed reference. A seed that changed the data would
// change the search path, and with it the job's cost by up to 3×.
type trainInputs struct {
	train, validation []*cdt.Series
	elecFit           *cdt.Series
	elecFusion        *cdt.Series
}

func makeTrainInputs(sz sizes, seed int64) trainInputs {
	scale := math.Ldexp(1, int(((seed%8)+8)%8))
	rescale := func(s *cdt.Series) *cdt.Series {
		v := make([]float64, s.Len())
		for i, x := range s.Values {
			v[i] = x * scale
		}
		return cdt.NewLabeledSeries(fmt.Sprintf("%s-seed%d", s.Name, seed), v, s.Anomalies)
	}
	cal := sge.Calorie(sge.CalorieOptions{Sensors: sz.trainSensors + sz.valSensors, Days: sz.trainDays, Seed: trainDataSeed}).Series
	year := hoursPerYear * sz.artYears
	el := sge.Electricity(sge.ElectricityOptions{Hours: 2 * year, Seed: trainDataSeed}).Series[0]
	in := trainInputs{elecFit: rescale(el.Slice(0, year)), elecFusion: rescale(el.Slice(year, 2*year))}
	for i, s := range cal {
		if i < sz.trainSensors {
			in.train = append(in.train, rescale(s))
		} else {
			in.validation = append(in.validation, rescale(s))
		}
	}
	return in
}

// jobResult is what the train job must reproduce.
type jobResult struct {
	Omega, Delta int
	Score        float64
	ScaleRules   []int // best calorie model, then the pyramid's scales
}

func (r jobResult) String() string {
	return fmt.Sprintf("(ω=%d, δ=%d) score=%v rules=%v", r.Omega, r.Delta, r.Score, r.ScaleRules)
}

func (r jobResult) equal(o jobResult) bool {
	if r.Omega != o.Omega || r.Delta != o.Delta || r.Score != o.Score || len(r.ScaleRules) != len(o.ScaleRules) {
		return false
	}
	for i := range r.ScaleRules {
		if r.ScaleRules[i] != o.ScaleRules[i] {
			return false
		}
	}
	return true
}

// trainReference is the committed result of the full-size job. Any seed
// must reproduce it (see trainInputs).
var trainReference = jobResult{Omega: 26, Delta: 3, Score: 0.1788975716633736, ScaleRules: []int{13, 31, 12, 18}}

// job is one training run: corpora, the Bayesian (ω, δ) search with
// objective F(h), the winning model, and the learned-fusion pyramid.
type job struct {
	train, validation, elec *cdt.Corpus
	opt                     cdt.OptimizeResult
	best                    *cdt.Model
	pyramid                 *cdt.PyramidModel
	result                  jobResult
}

func searchOptions(sz sizes, parallelism int) cdt.OptimizeOptions {
	return cdt.OptimizeOptions{
		InitPoints:  sz.initPoints,
		Iterations:  sz.iterations,
		Seed:        searchSeed,
		Parallelism: parallelism,
	}
}

func runJob(sz sizes, in trainInputs, parallelism int) (*job, error) {
	var j job
	var err error
	if j.train, err = cdt.NewCorpus(in.train); err != nil {
		return nil, err
	}
	if j.validation, err = cdt.NewCorpus(in.validation); err != nil {
		return nil, err
	}
	if j.elec, err = cdt.NewCorpus([]*cdt.Series{in.elecFit}); err != nil {
		return nil, err
	}
	if j.opt, err = cdt.OptimizeCorpus(j.train, j.validation, cdt.ObjectiveFH, searchOptions(sz, parallelism)); err != nil {
		return nil, err
	}
	if j.best, err = j.train.Fit(j.opt.Best); err != nil {
		return nil, err
	}
	if j.pyramid, err = j.elec.FitPyramid(pyramidOpts, pyramidCfg); err != nil {
		return nil, err
	}
	if err := j.pyramid.TrainFusion([]*cdt.Series{in.elecFusion}); err != nil {
		return nil, err
	}
	j.result = jobResult{
		Omega:      j.opt.Best.Omega,
		Delta:      j.opt.Best.Delta,
		Score:      j.opt.BestScore,
		ScaleRules: append([]int{j.best.NumRules()}, j.pyramid.Info().ScaleRules...),
	}
	return &j, nil
}

// jobPhase is the train workload's measured training phase.
type jobPhase struct {
	last       *job
	times      []float64 // timed jobs, seconds
	failed     int
	attempted  int
	firstError error
	allocs     uint64
	allocBytes uint64
	gcCycles   uint32
}

// runJobs runs one untimed warm-up job, then timed jobs back to back
// until budget is spent (at least two), then one sequential job
// (Parallelism -1). Every job must match the reference: the committed
// one at full size, the warm-up job's otherwise.
func runJobs(sz sizes, in trainInputs, budget time.Duration, reference *jobResult) (jobPhase, error) {
	var p jobPhase
	check := func(j *job) {
		p.attempted++
		if !j.result.equal(*reference) {
			p.failed++
			if p.firstError == nil {
				p.firstError = fmt.Errorf("%w: train job gave %v, reference %v", errMismatch, j.result, *reference)
			}
		}
	}
	warm, err := runJob(sz, in, 0)
	if err != nil {
		return p, err
	}
	if reference == nil {
		reference = &warm.result
	}
	check(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for len(p.times) < 2 || time.Since(start) < budget {
		runtime.GC()
		t := time.Now()
		j, err := runJob(sz, in, 0)
		if err != nil {
			return p, err
		}
		p.times = append(p.times, time.Since(t).Seconds())
		check(j)
		p.last = j
	}
	runtime.ReadMemStats(&after)
	p.allocs = after.Mallocs - before.Mallocs
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	seq, err := runJob(sz, in, -1)
	if err != nil {
		return p, err
	}
	check(seq)
	return p, nil
}

// trainBody is the train workload's serving traffic: the job's calorie
// sensors, training and validation split alike, scored by the winning
// model. One body shape keeps the latency quantiles on one mode; the
// pyramid is served in the traced replay.
func trainBody(in trainInputs) []batchBody {
	var cal []*cdt.Series
	for _, s := range append(append([]*cdt.Series(nil), in.train...), in.validation...) {
		cal = append(cal, unlabeled(s.Name, s))
	}
	return []batchBody{encodeBatch(calorieName, cal)}
}
