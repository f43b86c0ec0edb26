package server

// Drift detection: the server watches each model's live fire rate over a
// sliding window of scored windows and compares it against the rate the
// model saw at training time (Model.TrainingAnomalyRate, carried inside
// the artifact's tree counts). When the live rate wanders past a
// configured absolute bound, the model is marked stale — surfaced on
// /metrics (cdtserve_model_stale{model}) and /healthz — and, when the
// server has a store and a Retrainer, a single-flight background retrain
// publishes a fresh candidate version, unpromoted: drift gets a human a
// reviewed candidate, never a silent model swap.

import (
	"context"
	"fmt"
	"log/slog"
	"sync"

	cdt "cdt"
	"cdt/internal/modelstore"
)

// Retrainer produces a fresh serialized model document for a drifted
// model. modelstore.CorpusRetrainer is the standard implementation.
type Retrainer interface {
	Retrain(name string, incumbent *cdt.Model) ([]byte, string, error)
}

// driftBuckets is the ring length: the sliding window advances in
// window/driftBuckets-sized steps, so the tracked span stays within
// [window, window·(1+1/driftBuckets)) windows.
const driftBuckets = 16

// driftBucket accumulates one ring slot's worth of scored windows.
// rules holds per-rule firing counts aligned with the model's
// attribution label table, so a stale transition can name the rule
// driving the drift, not just the model.
type driftBucket struct {
	windows uint64
	fired   uint64
	rules   []uint64
}

// driftTracker follows one served record's live fire rate; the record's
// mutex guards it.
type driftTracker struct {
	baseline float64 // training-time anomaly rate
	ring     [driftBuckets]driftBucket
	cur      int
	stale    bool   // sticky for the record's lifetime
	rule     string // top firing rule label at the stale transition
}

func (t *driftTracker) totals() (windows, fired uint64) {
	for _, b := range t.ring {
		windows += b.windows
		fired += b.fired
	}
	return windows, fired
}

// topRule sums the per-rule counts across the ring and returns the flat
// index with the most firings over the tracked window (-1 when no rule
// counts were recorded).
func (t *driftTracker) topRule() int {
	var sums []uint64
	for _, b := range t.ring {
		for i, n := range b.rules {
			if i >= len(sums) {
				sums = append(sums, make([]uint64, i+1-len(sums))...)
			}
			sums[i] += n
		}
	}
	best, bestN := -1, uint64(0)
	for i, n := range sums {
		if n > bestN {
			best, bestN = i, n
		}
	}
	return best
}

// add folds one scored sample into the ring and reports whether it
// tripped the bound: the tracker has seen at least window windows and
// its live fire rate is more than bound away from the baseline.
func (t *driftTracker) add(windows, fired int, ruleCounts []uint64, window int, bound float64) bool {
	b := &t.ring[t.cur]
	b.windows += uint64(windows)
	b.fired += uint64(fired)
	for i, n := range ruleCounts {
		if n == 0 {
			continue
		}
		if i >= len(b.rules) {
			b.rules = append(b.rules, make([]uint64, i+1-len(b.rules))...)
		}
		b.rules[i] += n
	}
	if b.windows >= uint64(window/driftBuckets+1) {
		t.cur = (t.cur + 1) % driftBuckets
		t.ring[t.cur] = driftBucket{}
	}
	total, totalFired := t.totals()
	if t.stale || total < uint64(window) {
		return false
	}
	live := float64(totalFired) / float64(total)
	delta := live - t.baseline
	return delta > bound || delta < -bound
}

// drift holds the drift configuration and the single-flight retrain
// state; each served record carries its own tracker.
type drift struct {
	window    int     // minimum windows tracked before evaluating
	bound     float64 // absolute |live − baseline| trigger; <= 0 disables
	store     *modelstore.Store
	retrainer Retrainer
	tel       *serverMetrics
	logger    *slog.Logger // nil-safe: retrain outcomes log only when set

	mu         sync.Mutex
	retraining map[string]bool // models with a retrain in flight
}

func newDrift(window int, bound float64, store *modelstore.Store, retrainer Retrainer, tel *serverMetrics, logger *slog.Logger) *drift {
	if window <= 0 {
		window = 512
	}
	return &drift{
		window:     window,
		bound:      bound,
		store:      store,
		retrainer:  retrainer,
		tel:        tel,
		logger:     logger,
		retraining: make(map[string]bool),
	}
}

// observe folds one scored sample (windows swept, detections fired) of
// m into m's sliding window and evaluates the drift bound. A retired
// record is ignored: its readings were scored by an artifact no longer
// serving under the name. Takes m.mu for the tracker and d.mu for the
// retrain flag, never both at once; any retrain it triggers runs on a
// separate goroutine outside both. Pyramid artifacts
// are tracked like plain models (their baseline is the base scale's
// training rate) but never retrained automatically — the retrainer only
// knows how to re-fit plain models, so a drifted pyramid gets a stale
// mark and an audit note instead.
//
// ruleCounts is the sample's per-rule firing breakdown (the attribution
// accumulation array). It feeds a per-rule window alongside the
// aggregate one, so a stale transition names the rule driving the drift
// — the paper's rules are the interpretable unit, and "model spikes is
// stale because x4.r2 tripled its fire rate" is actionable where "model
// spikes is stale" is not. ctx carries the request ID into retrain log
// lines.
func (d *drift) observe(ctx context.Context, m *servedModel, windows, fired int, ruleCounts []uint64) {
	if d.bound <= 0 || windows <= 0 {
		return
	}
	m.mu.Lock()
	if m.retired {
		m.mu.Unlock()
		return
	}
	t := &m.drift
	trigger := t.add(windows, fired, ruleCounts, d.window, d.bound)
	if trigger {
		t.stale = true
		if idx := t.topRule(); idx >= 0 {
			t.rule = m.ruleLabel(idx)
		}
		m.stale.Set(1)
	}
	rule := t.rule
	m.mu.Unlock()
	if !trigger {
		return
	}

	rid := RequestID(ctx)
	if d.logger != nil {
		d.logger.Warn("model drift detected",
			"model", m.name, "top_rule", rule, "request_id", rid)
	}
	if d.store == nil || d.retrainer == nil {
		return
	}
	incumbent, ok := m.art.(*cdt.Model)
	if !ok {
		d.tel.retrains.With("skipped").Inc()
		_ = d.store.Note(modelstore.EventRetrain, m.name, 0,
			fmt.Sprintf("skipped: incumbent is a %q artifact; automatic retraining supports plain models only", m.info.Kind))
		return
	}
	d.mu.Lock()
	launch := !d.retraining[m.name]
	d.retraining[m.name] = true
	d.mu.Unlock()
	if launch {
		go d.retrain(m.name, incumbent, rid)
	}
}

// retrain asks the Retrainer for a fresh document and publishes it to
// the store as an unpromoted candidate. Runs off the request path; the
// single-flight flag set in observe is cleared on exit (under d.mu).
// rid is the ID of the request whose observation tripped the bound —
// the retrain outlives that request, so its log lines carry the ID as a
// plain value.
func (d *drift) retrain(name string, incumbent *cdt.Model, rid string) {
	defer func() {
		d.mu.Lock()
		delete(d.retraining, name)
		d.mu.Unlock()
	}()
	doc, note, err := d.retrainer.Retrain(name, incumbent)
	if err != nil {
		d.tel.retrains.With("error").Inc()
		_ = d.store.Note(modelstore.EventRetrain, name, 0, fmt.Sprintf("failed: %v", err))
		if d.logger != nil {
			d.logger.Warn("drift retrain failed", "model", name, "request_id", rid, "err", err)
		}
		return
	}
	v, err := d.store.Publish(name, doc, "retrain", note)
	if err != nil {
		d.tel.retrains.With("error").Inc()
		_ = d.store.Note(modelstore.EventRetrain, name, 0, fmt.Sprintf("publish failed: %v", err))
		if d.logger != nil {
			d.logger.Warn("drift retrain publish failed", "model", name, "request_id", rid, "err", err)
		}
		return
	}
	d.tel.retrains.With("ok").Inc()
	_ = d.store.Note(modelstore.EventRetrain, name, v.Version, "candidate published, awaiting promotion")
	if d.logger != nil {
		d.logger.Info("drift retrain published candidate",
			"model", name, "version", v.Version, "request_id", rid)
	}
}
