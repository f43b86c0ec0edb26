// Multivariate monitoring: one CDT per sensor dimension, fused verdicts
// (the paper's future-work extension). A pump is instrumented with
// temperature and vibration sensors; failures show up in vibration only,
// so the "any dimension" fusion catches them while every rule stays
// readable per sensor.
//
//	go run ./examples/multivariate
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	cdt "cdt"
)

// pumpFeed simulates an instrumented pump; failures spike the vibration
// channel only.
func pumpFeed(name string, n int, failures []int, seed int64) *cdt.MultiSeries {
	rng := rand.New(rand.NewSource(seed))
	temp := make([]float64, n)
	vib := make([]float64, n)
	anoms := make([]bool, n)
	for i := range temp {
		temp[i] = 60 + 5*math.Sin(float64(i)/20) + rng.Float64()
		vib[i] = 2 + 0.5*math.Sin(float64(i)/7) + 0.1*rng.Float64()
	}
	for _, at := range failures {
		vib[at] = 15 // bearing fault signature
		anoms[at] = true
	}
	return &cdt.MultiSeries{
		Name:      name,
		Dims:      []*cdt.Series{cdt.NewSeries("temperature", temp), cdt.NewSeries("vibration", vib)},
		Anomalies: anoms,
	}
}

func main() {
	train := pumpFeed("pump-7 (history)", 500, []int{80, 210, 350, 460}, 1)
	live := pumpFeed("pump-7 (this week)", 300, []int{120, 250}, 2)

	model, err := cdt.FitMulti([]*cdt.MultiSeries{train}, cdt.Options{Omega: 5, Delta: 2}, cdt.FuseAny)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Trained %d per-dimension models (%d rules total, fusion policy %q):\n\n",
		model.Dimensions(), model.NumRules(), model.Policy)
	fmt.Print(model.RuleText())

	rep, err := model.Evaluate([]*cdt.MultiSeries{live})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nThis week's audit: F1=%.2f (precision %.2f, recall %.2f over %d windows)\n",
		rep.F1, rep.Confusion.Precision(), rep.Confusion.Recall(), rep.Confusion.Total())

	windows, err := model.DetectWindows(live)
	if err != nil {
		log.Fatal(err)
	}
	first := -1
	for wi, fired := range windows {
		if fired {
			first = wi
			break
		}
	}
	if first >= 0 {
		fmt.Printf("first alert: window starting at point %d (failure planted at 120)\n", first+1)
	}
}
