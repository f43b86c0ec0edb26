package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"

	cdt "cdt"
	"cdt/internal/datasets/sge"
)

// The deployment every serving workload runs: one store holding a
// single-scale calorie CDT and a learned-fusion electricity pyramid,
// both trained on data from a fixed preparation seed so that the model
// (and its rule count) is the same at every workload seed. Only the
// traffic comes from --seed.
const (
	prepSeed      = 2
	calorieName   = "calorie"
	pyramidName   = "electricity"
	hoursPerYear  = 365 * 24
	trainDataSeed = 1  // the train workload's fixed training problem
	searchSeed    = 7  // OptimizeOptions.Seed of the train job
	pushPoints    = 32 // readings per stream push
	clients       = 2  // closed-loop callers (= nproc on the reference box)
)

var (
	calorieOpts = cdt.Options{Omega: 5, Delta: 2}
	pyramidOpts = cdt.Options{Omega: 8, Delta: 2}
	// Threshold 1 only makes the untrained weighted policy valid;
	// TrainFusion replaces weights and threshold.
	pyramidCfg = cdt.PyramidConfig{
		Factors:    []int{1, 4, 16},
		Aggregator: "max",
		Fusion:     cdt.Fusion{Policy: cdt.FuseWeighted, Threshold: 1},
	}
)

// sizes scales a run. fullSizes is the benchmark; the self-test runs
// tinySizes so every workload finishes in a few seconds.
type sizes struct {
	bodies        int // distinct batch request bodies
	seriesPerBody int
	points        int // readings per batch series
	sessions      int // stream sessions, half per artifact
	feedPushes    int // pushes per session feed before it resets
	artSensors    int // calorie sensors the served model trains on
	artYears      int // electricity years: pyramid fit, then fusion fit
	trainSensors  int // train workload: calorie sensors (training split)
	valSensors    int // train workload: calorie sensors (validation split)
	trainDays     int
	initPoints    int
	iterations    int
	setupReps     int
	trainReps     int
	warmup        time.Duration
	replayOps     int // requests or pushes the traced run replays
	replayFeeds   int // series the traced run pushes through the stream layers
}

var fullSizes = sizes{
	bodies: 16, seriesPerBody: 8, points: 2000,
	sessions: 64, feedPushes: 64,
	artSensors: 4, artYears: 1,
	trainSensors: 4, valSensors: 2, trainDays: 365,
	initPoints: 5, iterations: 10,
	setupReps: 21, trainReps: 9,
	warmup:    2 * time.Second,
	replayOps: 16, replayFeeds: 4,
}

var tinySizes = sizes{
	bodies: 2, seriesPerBody: 2, points: 400,
	sessions: 4, feedPushes: 8,
	artSensors: 2, artYears: 1,
	trainSensors: 2, valSensors: 1, trainDays: 200,
	initPoints: 2, iterations: 2,
	setupReps: 2, trainReps: 1,
	warmup:    200 * time.Millisecond,
	replayOps: 2, replayFeeds: 1,
}

// deployment is a trained pair of served artifacts and their saved
// documents, keyed by registry name.
type deployment struct {
	calorie *cdt.Model
	pyramid *cdt.PyramidModel
	docs    map[string][]byte
}

func (d deployment) artifact(name string) cdt.Artifact {
	if name == calorieName {
		return d.calorie
	}
	return d.pyramid
}

// trainingData is what a deployment trains on.
type trainingData struct {
	calorie     []*cdt.Series // calorie CDT training sensors
	calorieEval []*cdt.Series // held-out sensors (the traced run's evaluate step)
	elecFit     *cdt.Series   // pyramid training year
	elecFusion  *cdt.Series   // fusion training year
}

func prepData(sz sizes) trainingData {
	cal := sge.Calorie(sge.CalorieOptions{Sensors: sz.artSensors + 1, Days: sz.points, Seed: prepSeed}).Series
	year := hoursPerYear * sz.artYears
	el := sge.Electricity(sge.ElectricityOptions{Hours: 2 * year, Seed: prepSeed}).Series[0]
	td := trainingData{
		calorie:     cal[:sz.artSensors],
		calorieEval: cal[sz.artSensors:],
		elecFit:     el.Slice(0, year),
		elecFusion:  el.Slice(year, 2*year),
	}
	return td
}

// trainDeployment fits the calorie CDT at its fixed (ω, δ) and the
// pyramid with learned fusion, then saves both.
func trainDeployment(td trainingData) (deployment, error) {
	cal, err := cdt.Fit(td.calorie, calorieOpts)
	if err != nil {
		return deployment{}, fmt.Errorf("calorie model: %w", err)
	}
	pm, err := cdt.FitPyramid([]*cdt.Series{td.elecFit}, pyramidOpts, pyramidCfg)
	if err != nil {
		return deployment{}, fmt.Errorf("pyramid: %w", err)
	}
	if err := pm.TrainFusion([]*cdt.Series{td.elecFusion}); err != nil {
		return deployment{}, fmt.Errorf("pyramid fusion: %w", err)
	}
	return saveDeployment(cal, pm)
}

func saveDeployment(cal *cdt.Model, pm *cdt.PyramidModel) (deployment, error) {
	d := deployment{calorie: cal, pyramid: pm, docs: map[string][]byte{}}
	for _, name := range []string{calorieName, pyramidName} {
		var buf bytes.Buffer
		if err := d.artifact(name).Save(&buf); err != nil {
			return deployment{}, fmt.Errorf("saving %s: %w", name, err)
		}
		d.docs[name] = buf.Bytes()
	}
	return d, nil
}

// batchBody is one distinct batch request: the series it carries and the
// JSON bytes sent.
type batchBody struct {
	model  string
	series []*cdt.Series
	json   []byte
}

func encodeBatch(model string, series []*cdt.Series) batchBody {
	b := []byte(`{"series":[`)
	for i, s := range series {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":"`...)
		b = append(b, s.Name...)
		b = append(b, `","values":`...)
		b = appendFloats(b, s.Values)
		b = append(b, '}')
	}
	b = append(b, "]}"...)
	return batchBody{model: model, series: series, json: b}
}

func appendFloats(b []byte, vs []float64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// unlabeled strips annotations: requests carry readings only.
func unlabeled(name string, s *cdt.Series) *cdt.Series {
	return cdt.NewSeries(name, append([]float64(nil), s.Values...))
}

// calorieBodies draws bodies of daily calorie readings from --seed.
func calorieBodies(sz sizes, seed int64) []batchBody {
	n := sz.bodies * sz.seriesPerBody
	ds := sge.Calorie(sge.CalorieOptions{Sensors: n, Days: sz.points, Seed: seed}).Series
	out := make([]batchBody, sz.bodies)
	for b := range out {
		series := make([]*cdt.Series, sz.seriesPerBody)
		for i := range series {
			series[i] = unlabeled(fmt.Sprintf("calorie-%d-%d", b, i), ds[b*sz.seriesPerBody+i])
		}
		out[b] = encodeBatch(calorieName, series)
	}
	return out
}

// electricityBodies draws bodies of hourly electricity readings from
// --seed: consecutive stretches of one long feed.
func electricityBodies(sz sizes, seed int64) []batchBody {
	n := sz.bodies * sz.seriesPerBody
	el := sge.Electricity(sge.ElectricityOptions{Hours: n * sz.points, Seed: seed}).Series[0]
	out := make([]batchBody, sz.bodies)
	for b := range out {
		series := make([]*cdt.Series, sz.seriesPerBody)
		for i := range series {
			k := b*sz.seriesPerBody + i
			series[i] = unlabeled(fmt.Sprintf("electricity-%d-%d", b, i), el.Slice(k*sz.points, (k+1)*sz.points))
		}
		out[b] = encodeBatch(pyramidName, series)
	}
	return out
}

// streamFeed is one session's readings and the value scale it opens
// with.
type streamFeed struct {
	model  string
	values []float64
	scale  cdt.Scale
}

// streamFeeds draws one feed per session from --seed: the first half
// calorie sensors, the second half stretches of an electricity feed.
func streamFeeds(sz sizes, seed int64) []streamFeed {
	half := sz.sessions / 2
	n := sz.feedPushes * pushPoints
	cal := sge.Calorie(sge.CalorieOptions{Sensors: half, Days: n, Seed: seed}).Series
	el := sge.Electricity(sge.ElectricityOptions{Hours: half * n, Seed: seed}).Series[0]
	feeds := make([]streamFeed, 0, sz.sessions)
	for i := 0; i < half; i++ {
		feeds = append(feeds, newFeed(calorieName, cal[i].Values))
	}
	for i := 0; i < half; i++ {
		feeds = append(feeds, newFeed(pyramidName, el.Values[i*n:(i+1)*n]))
	}
	return feeds
}

func newFeed(model string, values []float64) streamFeed {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return streamFeed{model: model, values: values, scale: cdt.Scale{Min: lo, Max: hi}}
}
