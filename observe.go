package cdt

// Request-scoped scoring observability: the serving layer threads a
// per-scale sweep observer through the detection context so pyramid
// sweeps can feed pre-resolved latency histograms without this package
// knowing about metric registries — and without wall-clock reads in the
// detfloat-guarded training package (timing goes through the sanctioned
// telemetry.Stopwatch boundary).

import "context"

// ScaleSweepObserver receives the wall-clock cost of one pyramid scale
// sweep: the scale's index into ArtifactInfo.Scales, its downsample
// factor, and the elapsed seconds (resample + label + engine sweep).
type ScaleSweepObserver func(scaleIndex, factor int, seconds float64)

type sweepObserverKey struct{}

// WithScaleSweepObserver returns ctx carrying fn; pyramid scoring calls
// it once per scale per scored series. A nil fn clears the observer.
func WithScaleSweepObserver(ctx context.Context, fn ScaleSweepObserver) context.Context {
	return context.WithValue(ctx, sweepObserverKey{}, fn)
}

// scaleSweepObserver extracts the observer (nil when absent).
func scaleSweepObserver(ctx context.Context) ScaleSweepObserver {
	fn, _ := ctx.Value(sweepObserverKey{}).(ScaleSweepObserver)
	return fn
}
