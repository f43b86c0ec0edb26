// Command cdt trains Composition-based Decision Trees on CSV time-series
// and detects anomalies with the learned rules.
//
// Usage:
//
//	cdt label    -in data.csv -delta 2
//	cdt train    -in labeled.csv -omega 5 -delta 2 [-explain] [-save model.json]
//	cdt train    -in labeled.csv -scales 1,4,16 [-agg max] [-fusion any] [-save pyramid.json]
//	cdt train    -in multi.csv -scales 1,4,16 -dim 1 -fusion weighted [-save pyramid.json]
//	cdt detect   -train labeled.csv -in fresh.csv -omega 5 -delta 2
//	cdt detect   -model model.json -in fresh.csv [-dim 1]
//	cdt optimize -in labeled.csv [-objective fh] [-iters 25]
//	cdt audit    -train labeled.csv -eval other.csv -omega 5 -delta 2
//	cdt plot     -in data.csv [-detect -train labeled.csv]
//	cdt stream   -model model.json -in feed.csv -min 0 -max 100 [-dim 1]
//	cdt store    <versions|audit|publish|promote|rollback|gc|diff> -dir store [flags]
//
// Passing -scales to train fits a resolution pyramid — one rule model
// per downsample factor, fused at detection time — whose detections
// carry an anomaly-type tag (point, contextual, collective). Saved
// pyramid artifacts load anywhere a plain model does (detect, stream,
// the store, cdtserve). The fusion policy is pluggable: "any",
// "majority", and "all" are fixed votes; "k-of-n" and "weighted" are
// trainable — without an explicit -k or -threshold, train learns the
// quorum (best point-level F1) or the per-scale weights and threshold
// (deterministic logistic fit) from the training labels.
//
// Passing -dim additionally trains the pyramid over one column of a
// multivariate CSV. The column is picked once, where the CSV is read:
// train, detect and stream all hand the model that column's readings as
// a univariate series. A saved pyramid remembers its column, so detect
// and stream read multivariate input for it without -dim (a -dim that
// disagrees is an error); for any other model, -dim just picks the
// column to score.
//
// Univariate CSV files carry one "value[,is_anomaly]" row per point
// after an optional header (the format written by cmd/datagen and
// datasets.WriteCSV). Multivariate CSVs require a header naming each
// column, one float per column per row, optionally ending in an
// "is_anomaly" label column.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	cdt "cdt"
	"cdt/internal/ascii"
	"cdt/internal/datasets"
	"cdt/internal/pattern"
	"cdt/internal/timeseries"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine renders a failed run's error for stderr with one "cdt: "
// prefix: the CLI's own errors carry none, while errors from the cdt
// package already start with it.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "cdt: ") {
		msg = "cdt: " + msg
	}
	return msg
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: cdt <label|train|detect|optimize|audit|stream|plot|store> [flags]")
	}
	switch args[0] {
	case "label":
		return runLabel(args[1:])
	case "train":
		return runTrain(args[1:])
	case "detect":
		return runDetect(args[1:])
	case "optimize":
		return runOptimize(args[1:])
	case "audit":
		return runAudit(args[1:])
	case "stream":
		return runStream(args[1:])
	case "plot":
		return runPlot(args[1:])
	case "store":
		return runStore(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want label, train, detect, optimize, audit, stream, plot, or store)", args[0])
	}
}

// loadSeries reads a CSV series from disk.
func loadSeries(path string) (*timeseries.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return datasets.ReadCSV(f, path)
}

// loadFeed reads the series a subcommand trains on or scores: the whole
// univariate CSV when dim is negative, else column dim of a multivariate
// CSV (header required, optional trailing is_anomaly column) carrying
// the file's labels. columns is the file's value-column count.
func loadFeed(cmd, path string, dim int) (s *cdt.Series, columns int, err error) {
	if dim < 0 {
		s, err = loadSeries(path)
		return s, 1, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	dims, labels, err := datasets.ReadMultiCSV(f, path)
	if err != nil {
		return nil, 0, err
	}
	if dim >= len(dims) {
		return nil, 0, fmt.Errorf("%s: dimension %d, but %s has %d value columns", cmd, dim, path, len(dims))
	}
	ms := &cdt.MultiSeries{Name: path, Dims: dims, Anomalies: labels}
	s, err = ms.Dimension(dim)
	return s, len(dims), err
}

// scoredColumn resolves the column of a multivariate -in a loaded
// artifact scores: a pyramid trained over a column (-dim at train time)
// fixes it, and a -dim flag must then agree; otherwise -dim picks it
// (negative: -in is univariate).
func scoredColumn(cmd string, model cdt.Artifact, dim int) (int, error) {
	pm, ok := model.(*cdt.PyramidModel)
	if !ok || pm.Config.Dim == 0 {
		return dim, nil
	}
	if dim >= 0 && dim != pm.Config.Dim {
		return 0, fmt.Errorf("%s: -dim %d, but the pyramid was trained over dimension %d", cmd, dim, pm.Config.Dim)
	}
	return pm.Config.Dim, nil
}

func runLabel(args []string) error {
	fs := flag.NewFlagSet("label", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV (value[,is_anomaly] rows)")
	delta := fs.Int("delta", 2, "magnitude granularity δ")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("label: -in is required")
	}
	s, err := loadSeries(*in)
	if err != nil {
		return err
	}
	if _, err := s.Normalize(); err != nil {
		return err
	}
	cfg := pattern.NewConfig(*delta)
	labels, err := cfg.LabelSeries(s.Values)
	if err != nil {
		return err
	}
	for i, l := range labels {
		marker := ""
		if s.Anomalies != nil && s.Anomalies[i+1] {
			marker = "  <- anomaly"
		}
		fmt.Printf("%6d  %-14s%s\n", i+1, cfg.LabelName(l), marker)
	}
	return nil
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	in := fs.String("in", "", "labeled training CSV")
	omega := fs.Int("omega", 5, "window size ω")
	delta := fs.Int("delta", 2, "magnitude granularity δ")
	explain := fs.Bool("explain", false, "render rule sketches and readings")
	showTree := fs.Bool("tree", false, "render the decision tree")
	savePath := fs.String("save", "", "write the trained model as JSON to this path")
	scales := fs.String("scales", "", `comma-separated downsample factors for a resolution pyramid (e.g. "1,4,16"; must start with 1)`)
	agg := fs.String("agg", "mean", `pyramid downsample aggregator: "mean" or "max"`)
	fusion := fs.String("fusion", "any", `pyramid fusion policy: "any", "majority", "all", "k-of-n", or "weighted"`)
	dim := fs.Int("dim", -1, "0-based column of a multivariate CSV to train the pyramid over (requires -scales)")
	quorum := fs.Int("k", 0, `firing-scale quorum for -fusion k-of-n (0 learns the best quorum from the training labels)`)
	threshold := fs.Float64("threshold", 0, `firing weight sum for -fusion weighted (0 learns weights and threshold from the training labels)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("train: -in is required")
	}
	if *dim >= 0 && *scales == "" {
		return fmt.Errorf("train: -dim requires -scales (dimension selection is a pyramid feature)")
	}
	s, columns, err := loadFeed("train", *in, *dim)
	if err != nil {
		return err
	}
	if !s.Labeled() {
		return fmt.Errorf("train: %s has no is_anomaly column", *in)
	}
	if *scales != "" {
		return trainPyramid(pyramidTrainArgs{
			s: s, columns: columns,
			omega: *omega, delta: *delta, dim: *dim,
			scales: *scales, agg: *agg, fusion: *fusion,
			k: *quorum, threshold: *threshold,
			explain: *explain, savePath: *savePath,
		})
	}
	model, err := cdt.Fit([]*cdt.Series{s}, cdt.Options{Omega: *omega, Delta: *delta})
	if err != nil {
		return err
	}
	rep, err := model.Evaluate([]*cdt.Series{s})
	if err != nil {
		return err
	}
	fmt.Printf("trained CDT: omega=%d delta=%d rules=%d\n", *omega, *delta, model.NumRules())
	fmt.Printf("training fit: F1=%.3f Q=%.3f F(h)=%.3f\n\n", rep.F1, rep.Q, rep.FH)
	fmt.Print(model.RuleText())
	if *explain {
		fmt.Println()
		fmt.Print(model.Explain())
	}
	if *showTree {
		fmt.Println()
		fmt.Print(model.TreeText())
	}
	if *savePath != "" {
		return saveArtifact(model, *savePath)
	}
	return nil
}

// saveArtifact writes a trained artifact (plain model or pyramid) as
// JSON to path.
func saveArtifact(art cdt.Artifact, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := art.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("model written to %s\n", path)
	return nil
}

// parseScales parses the -scales flag ("1,4,16") into pyramid factors.
func parseScales(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		f, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("train: -scales: bad factor %q", part)
		}
		out = append(out, f)
	}
	return out, nil
}

// pyramidTrainArgs carries `cdt train -scales ...` inputs: s is the
// training series, column dim of a columns-wide CSV when dim >= 0.
type pyramidTrainArgs struct {
	s            *cdt.Series
	columns      int
	omega, delta int
	dim          int
	scales       string
	agg          string
	fusion       string
	k            int
	threshold    float64
	explain      bool
	savePath     string
}

// trainPyramid handles `cdt train -scales ...`: fit one rule model per
// downsample factor, learn any trainable fusion parameters from the
// labels, and report the fused result.
func trainPyramid(a pyramidTrainArgs) error {
	factors, err := parseScales(a.scales)
	if err != nil {
		return err
	}
	policy, err := cdt.ParseFusionPolicy(a.fusion)
	if err != nil {
		return err // names the policy: cdt: unknown fusion policy "x"
	}
	// Trainable policies without explicit parameters start from
	// placeholders that pass config validation; TrainFusion overwrites
	// them with the learned fit below.
	fuse := cdt.Fusion{Policy: policy}
	learn := false
	switch policy {
	case cdt.FuseKOfN:
		if a.k > 0 {
			fuse.K = a.k
		} else {
			fuse.K = 1
			learn = true
		}
	case cdt.FuseWeighted:
		if a.threshold > 0 {
			fuse.Threshold = a.threshold
		} else {
			fuse.Threshold = 1
			learn = true
		}
	}
	cfg := cdt.PyramidConfig{Factors: factors, Aggregator: a.agg, Fusion: fuse, Dim: max(a.dim, 0)}
	train := []*cdt.Series{a.s}
	pm, err := cdt.FitPyramid(train, cdt.Options{Omega: a.omega, Delta: a.delta}, cfg)
	if err != nil {
		return err
	}
	if learn {
		if err := pm.TrainFusion(train); err != nil {
			return err
		}
	}
	rep, err := pm.Evaluate(train)
	if err != nil {
		return err
	}
	fmt.Printf("trained CDT pyramid: omega=%d delta=%d scales=%s fusion=%s rules=%d\n",
		a.omega, a.delta, a.scales, pm.Config.Fusion, pm.NumRules())
	if a.dim >= 0 {
		fmt.Printf("scoring dimension %d (%q) of %d\n", a.dim, a.s.Name, a.columns)
	}
	if learn {
		switch policy {
		case cdt.FuseWeighted:
			fmt.Printf("learned fusion: threshold=%g weights=%v\n",
				pm.Config.Fusion.Threshold, pm.Config.Fusion.Weights)
		case cdt.FuseKOfN:
			fmt.Printf("learned fusion: quorum %d of %d scales\n",
				pm.Config.Fusion.K, pm.NumScales())
		}
	}
	// Pyramid evaluation is point-level; recall is the meaningful fit
	// number (window flags over-cover single points by construction).
	fmt.Printf("training fit: precision=%.3f recall=%.3f F1=%.3f\n\n",
		rep.Confusion.Precision(), rep.Confusion.Recall(), rep.F1)
	fmt.Print(pm.RuleText())
	if a.explain {
		fmt.Println()
		fmt.Print(pm.Explain())
	}
	if a.savePath != "" {
		return saveArtifact(pm, a.savePath)
	}
	return nil
}

func runDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ContinueOnError)
	trainPath := fs.String("train", "", "labeled training CSV (alternative to -model)")
	modelPath := fs.String("model", "", "saved model JSON (alternative to -train)")
	in := fs.String("in", "", "series to scan")
	omega := fs.Int("omega", 5, "window size ω (with -train)")
	delta := fs.Int("delta", 2, "magnitude granularity δ (with -train)")
	dim := fs.Int("dim", -1, "treat -in as a multivariate CSV and score this 0-based column (a pyramid trained with -dim fixes it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*trainPath == "") == (*modelPath == "") {
		return fmt.Errorf("detect: exactly one of -train or -model is required")
	}
	if *in == "" {
		return fmt.Errorf("detect: -in is required")
	}
	var model cdt.Artifact
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		model, err = cdt.LoadAny(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		train, err := loadSeries(*trainPath)
		if err != nil {
			return err
		}
		model, err = cdt.Fit([]*cdt.Series{train}, cdt.Options{Omega: *omega, Delta: *delta})
		if err != nil {
			return err
		}
	}
	column, err := scoredColumn("detect", model, *dim)
	if err != nil {
		return err
	}
	target, _, err := loadFeed("detect", *in, column)
	if err != nil {
		return err
	}
	// Every artifact kind lists its flagged points — the union of the
	// detection ranges, which is PointFlags — and pyramids additionally
	// classify each fused detection, reported below the listing.
	dets, err := model.DetectExplained(context.Background(), target)
	if err != nil {
		return err
	}
	flags := make([]bool, target.Len())
	for _, d := range dets {
		for p := d.Start; p <= d.End; p++ {
			flags[p] = true
		}
	}
	n := 0
	for i, flagged := range flags {
		if flagged {
			fmt.Printf("anomaly at point %d (value %g)\n", i, target.Values[i])
			n++
		}
	}
	fmt.Printf("%d/%d points flagged", n, len(flags))
	_, pyramid := model.(*cdt.PyramidModel)
	if pyramid && column >= 0 {
		fmt.Printf(" on dimension %d (%q)", column, target.Name)
	}
	fmt.Println()
	if pyramid {
		printPyramidDetections(dets)
	}
	return nil
}

// printPyramidDetections lists fused pyramid detections with their
// anomaly type and firing scales.
func printPyramidDetections(dets []cdt.WindowDetection) {
	for _, d := range dets {
		fmt.Printf("%s anomaly spanning points %d..%d (fired at %s)\n",
			d.Type, d.Start, d.End, scaleList(d.Scales))
	}
}

// scaleList renders the firing scales of a fused detection ("x1, x4").
func scaleList(scales []cdt.ScaleDetection) string {
	seen := make(map[int]bool)
	var parts []string
	for _, sd := range scales {
		if !seen[sd.Factor] {
			seen[sd.Factor] = true
			parts = append(parts, fmt.Sprintf("x%d", sd.Factor))
		}
	}
	return strings.Join(parts, ", ")
}

func runOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	in := fs.String("in", "", "labeled CSV (split 60/20/20 internally)")
	objective := fs.String("objective", "fh", `objective: "f1" or "fh"`)
	iters := fs.Int("iters", 25, "surrogate-guided evaluations")
	init := fs.Int("init", 5, "random initial evaluations")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("optimize: -in is required")
	}
	var obj cdt.Objective
	switch *objective {
	case "f1":
		obj = cdt.ObjectiveF1
	case "fh":
		obj = cdt.ObjectiveFH
	default:
		return fmt.Errorf("optimize: unknown objective %q", *objective)
	}
	s, err := loadSeries(*in)
	if err != nil {
		return err
	}
	if !s.Labeled() {
		return fmt.Errorf("optimize: %s has no is_anomaly column", *in)
	}
	if _, err := s.Normalize(); err != nil {
		return err
	}
	split, err := timeseries.ChronologicalSplit(s, 0.6, 0.2, 0.2)
	if err != nil {
		return err
	}
	res, err := cdt.Optimize([]*cdt.Series{split.Train}, []*cdt.Series{split.Validation}, obj, cdt.OptimizeOptions{
		InitPoints: *init,
		Iterations: *iters,
		Seed:       *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("best: omega=%d delta=%d (validation %s=%.3f after %d evaluations)\n",
		res.Best.Omega, res.Best.Delta, obj, res.BestScore, res.Evaluations)
	model, err := cdt.Fit([]*cdt.Series{split.Train, split.Validation}, res.Best)
	if err != nil {
		return err
	}
	rep, err := model.Evaluate([]*cdt.Series{split.Test})
	if err != nil {
		return err
	}
	fmt.Printf("test: F1=%.3f Q=%.3f F(h)=%.3f rules=%d\n", rep.F1, rep.Q, rep.FH, rep.NumRules)
	fmt.Print(model.RuleText())
	return nil
}

func runAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	trainPath := fs.String("train", "", "labeled training CSV")
	evalPath := fs.String("eval", "", "labeled evaluation CSV (defaults to the training file)")
	omega := fs.Int("omega", 5, "window size ω")
	delta := fs.Int("delta", 2, "magnitude granularity δ")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trainPath == "" {
		return fmt.Errorf("audit: -train is required")
	}
	if *evalPath == "" {
		*evalPath = *trainPath
	}
	train, err := loadSeries(*trainPath)
	if err != nil {
		return err
	}
	eval, err := loadSeries(*evalPath)
	if err != nil {
		return err
	}
	if !eval.Labeled() {
		return fmt.Errorf("audit: %s has no is_anomaly column", *evalPath)
	}
	model, err := cdt.Fit([]*cdt.Series{train}, cdt.Options{Omega: *omega, Delta: *delta})
	if err != nil {
		return err
	}
	stats, err := model.Audit([]*cdt.Series{eval})
	if err != nil {
		return err
	}
	fmt.Printf("%-4s %-10s %-12s %-10s %-8s rule\n", "#", "support", "false-alarms", "precision", "I(Rs)")
	for _, st := range stats {
		fmt.Printf("R%-3d %-10d %-12d %-10.2f %-8.2f IF %s THEN anomaly\n",
			st.Index, st.Support, st.FalseAlarms, st.Precision(), st.Interpretability, st.Text)
	}
	return nil
}

func runStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ContinueOnError)
	modelPath := fs.String("model", "", "saved model JSON")
	in := fs.String("in", "", "CSV feed to replay point-by-point")
	min := fs.Float64("min", 0, "expected minimum sensor value")
	max := fs.Float64("max", 0, "expected maximum sensor value")
	dim := fs.Int("dim", -1, "treat -in as a multivariate CSV and stream this 0-based column (a pyramid trained with -dim fixes it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *in == "" {
		return fmt.Errorf("stream: -model and -in are required")
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	model, err := cdt.LoadAny(f)
	f.Close()
	if err != nil {
		return err
	}
	column, err := scoredColumn("stream", model, *dim)
	if err != nil {
		return err
	}
	feed, _, err := loadFeed("stream", *in, column)
	if err != nil {
		return err
	}
	scale := cdt.Scale{Min: *min, Max: *max}
	if scale.Max <= scale.Min {
		// Derive the scale from the feed itself when not provided.
		lo, hi, err := feed.MinMax()
		if err != nil {
			return err
		}
		scale = cdt.Scale{Min: lo, Max: hi}
	} else if i := slices.IndexFunc(feed.Values, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }); i >= 0 {
		// Stream.Push labels any reading it is given, so the feed is
		// checked whole before the first push.
		return fmt.Errorf("stream: value %d is %v, want a finite reading", i, feed.Values[i])
	}
	stream, err := model.OpenStream(scale)
	if err != nil {
		return err
	}
	alerts := 0
	for i, v := range feed.Values {
		for _, d := range stream.Push(v) {
			alerts++
			fmt.Printf("alert after point %d: window %d..%d", i, d.WindowStart, d.WindowEnd)
			if d.Scale > 1 {
				fmt.Printf(" scale=x%d", d.Scale)
			}
			if d.Type != "" {
				fmt.Printf(" type=%s", d.Type)
			}
			fmt.Println()
		}
	}
	fmt.Printf("%d alerts over %d points\n", alerts, feed.Len())
	return nil
}

func runPlot(args []string) error {
	fs := flag.NewFlagSet("plot", flag.ContinueOnError)
	in := fs.String("in", "", "CSV series to chart")
	trainPath := fs.String("train", "", "labeled training CSV: train a model and overlay detections")
	omega := fs.Int("omega", 5, "window size ω (with -train)")
	delta := fs.Int("delta", 2, "magnitude granularity δ (with -train)")
	width := fs.Int("width", 72, "chart width in columns")
	height := fs.Int("height", 12, "chart height in rows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("plot: -in is required")
	}
	s, err := loadSeries(*in)
	if err != nil {
		return err
	}
	var flags []bool
	switch {
	case *trainPath != "":
		train, err := loadSeries(*trainPath)
		if err != nil {
			return err
		}
		model, err := cdt.Fit([]*cdt.Series{train}, cdt.Options{Omega: *omega, Delta: *delta})
		if err != nil {
			return err
		}
		flags, err = model.PointFlags(s)
		if err != nil {
			return err
		}
	case s.Labeled():
		flags = s.Anomalies
	}
	fmt.Print(ascii.Plot(s.Values, flags, ascii.PlotOptions{Width: *width, Height: *height}))
	return nil
}
