package server

// The registry's record of one served artifact. Everything cdtserve
// derives from an artifact is built here once per load — ω and the
// listing info, the per-rule attribution children, the anomaly-type
// and stale-gauge children, and the drift tracker — so no request
// resolves or rebuilds per-model state.
//
// Per-rule attribution says which rule fired, per model, as bounded-
// cardinality metrics. The paper's detections are human-interpretable
// rules, so serving observability should say *which* rule is firing
// (and, for pyramids, which scale is slow), not just that detections
// happened. The metriclabel contract shapes it: rule labels are stable
// indices ("r3", or "x4.r2" for scale-qualified pyramid rules), never
// rendered rule text — text is unbounded, re-renders on retrain, and
// would mint a fresh child per wording. The scoring hot path indexes a
// slice and does lock-free atomic adds. A cap on the label space
// (maxRuleLabels) keeps cardinality bounded even for absurdly large
// rule sets — flat indices past the cap fold into one "other" child.

import (
	"strconv"
	"sync"

	cdt "cdt"
	"cdt/internal/telemetry"
)

// maxRuleLabels caps the per-model rule-label space. Real CDT rule sets
// hold a handful of predicates per scale; the cap is a cardinality
// backstop, not a working limit.
const maxRuleLabels = 128

// servedModel is what the registry holds for one served artifact. All
// fields above mu are immutable after newServedModel; the batch fan-out
// and stream sessions read them concurrently. Requests and sessions keep
// the record they resolved: once a reload, promote or rollback replaces
// it, it is retired and stops feeding drift, while its children keep
// counting the detections it still serves.
type servedModel struct {
	name    string
	art     cdt.Artifact
	info    cdt.ArtifactInfo
	version int // store version; 0 in directory mode

	// labels are the flat rule labels in stable order: "r<i>" for plain
	// models, "x<factor>.r<i>" for pyramid scales, both 1-based to match
	// RuleText numbering. Pre-rendered here so no hot path formats them.
	labels []string
	// ruleFired are the cdtserve_rule_fired_total children, aligned with
	// labels; overflow counts flat indices past the cap.
	ruleFired []*telemetry.Counter
	overflow  *telemetry.Counter

	// scaleOff maps a pyramid scale index to its flat label offset;
	// factorIdx maps a downsample factor to its scale index. Both nil
	// for plain models (flat index == rule index − 1).
	scaleOff  []int
	factorIdx map[int]int

	// scaleSweep are the cdtserve_scale_sweep_seconds children and types
	// the cdtserve_anomaly_types_total children, one per pyramid scale
	// and anomaly type; both nil for plain models.
	scaleSweep []*telemetry.Histogram
	types      map[cdt.AnomalyType]*telemetry.Counter

	stale *telemetry.Gauge // cdtserve_model_stale{model}

	mu      sync.Mutex
	drift   driftTracker
	retired bool // replaced in the registry: no longer feeds drift
}

// newServedModel builds the record for art serving as name, resolving
// every telemetry child it will write to. Runs once per load, reload,
// promote or rollback per model, never per observation.
func newServedModel(tel *serverMetrics, name string, art cdt.Artifact, version int) *servedModel {
	info := art.Info()
	m := &servedModel{
		name:     name,
		art:      art,
		info:     info,
		version:  version,
		overflow: tel.ruleFired.With(name, "other"),
		stale:    tel.staleModels.With(name),
		drift:    driftTracker{baseline: art.TrainingAnomalyRate()},
	}
	if len(info.Scales) == 0 {
		for r := 0; r < info.NumRules && r < maxRuleLabels; r++ {
			label := "r" + strconv.Itoa(r+1)
			m.labels = append(m.labels, label)
			//cdtlint:ignore metriclabel resolved once per loaded artifact; labels are stable bounded indices capped at maxRuleLabels, and the scoring path only Adds to the resolved children
			m.ruleFired = append(m.ruleFired, tel.ruleFired.With(name, label))
		}
		return m
	}
	m.types = map[cdt.AnomalyType]*telemetry.Counter{
		cdt.TypePoint:      tel.anomalyTypes.With(name, string(cdt.TypePoint)),
		cdt.TypeContextual: tel.anomalyTypes.With(name, string(cdt.TypeContextual)),
		cdt.TypeCollective: tel.anomalyTypes.With(name, string(cdt.TypeCollective)),
	}
	m.scaleOff = make([]int, len(info.Scales))
	m.factorIdx = make(map[int]int, len(info.Scales))
	m.scaleSweep = make([]*telemetry.Histogram, len(info.Scales))
	off := 0
	for i, f := range info.Scales {
		m.scaleOff[i] = off
		m.factorIdx[f] = i
		rules := 0
		if i < len(info.ScaleRules) { // older artifacts without per-scale counts attribute nothing
			rules = info.ScaleRules[i]
		}
		off += rules
		scale := "x" + strconv.Itoa(f)
		//cdtlint:ignore metriclabel resolved once per loaded artifact, bounded by maxPyramidScales; scoring only Observes the resolved child
		m.scaleSweep[i] = tel.scaleSweep.With(name, scale)
		for r := 0; r < rules && len(m.labels) < maxRuleLabels; r++ {
			label := scale + ".r" + strconv.Itoa(r+1)
			m.labels = append(m.labels, label)
			//cdtlint:ignore metriclabel resolved once per loaded artifact; labels are stable bounded indices capped at maxRuleLabels, and the scoring path only Adds to the resolved children
			m.ruleFired = append(m.ruleFired, tel.ruleFired.With(name, label))
		}
	}
	return m
}

// retire marks m replaced: it stops feeding drift, and its stale flag
// clears (the record replacing it starts a fresh baseline). Takes m.mu,
// so an observation racing the replacement either lands before the
// flag clears or not at all.
func (m *servedModel) retire() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retired = true
	m.stale.Set(0)
}

// newCounts allocates a per-sample accumulation array: one slot per
// labeled rule plus the trailing overflow slot (nil when the model has
// no labeled rules).
func (m *servedModel) newCounts() []uint64 {
	if len(m.labels) == 0 {
		return nil
	}
	return make([]uint64, len(m.labels)+1)
}

// tally folds one scale's fired predicates into counts. factor is the
// firing scale's downsample factor for pyramids and is ignored for
// plain models; an unknown factor counts every predicate as overflow.
func (m *servedModel) tally(counts []uint64, factor int, fired []cdt.FiredPredicate) {
	if counts == nil {
		return
	}
	base := 0
	if m.factorIdx != nil {
		i, ok := m.factorIdx[factor]
		if !ok {
			counts[len(m.labels)] += uint64(len(fired))
			return
		}
		base = m.scaleOff[i]
	}
	for _, f := range fired {
		idx := base + f.Index - 1
		if idx < 0 || idx >= len(m.labels) {
			idx = len(m.labels) // overflow slot
		}
		counts[idx]++
	}
}

// tallyWindow folds one batch detection's fired rules into counts. For
// pyramids the per-scale breakdown is the source of truth (the headline
// Fired set duplicates the fastest scale's predicates).
func (m *servedModel) tallyWindow(counts []uint64, d *cdt.WindowDetection) {
	if m.factorIdx == nil {
		m.tally(counts, 0, d.Fired)
		return
	}
	for _, sd := range d.Scales {
		m.tally(counts, sd.Factor, sd.Fired)
	}
}

// apply publishes an accumulation array to the pre-resolved counters:
// at most one atomic add per distinct rule, no child resolution.
func (m *servedModel) apply(counts []uint64) {
	if counts == nil {
		return
	}
	for i, n := range counts[:len(counts)-1] {
		if n > 0 {
			m.ruleFired[i].Add(n)
		}
	}
	if n := counts[len(counts)-1]; n > 0 {
		m.overflow.Add(n)
	}
}

// countType counts one detection under its anomaly type (pyramids; a
// plain model's untyped detections count nowhere).
func (m *servedModel) countType(t cdt.AnomalyType) {
	if c := m.types[t]; c != nil {
		c.Inc()
	}
}

// observeSweep is the cdt.ScaleSweepObserver the batch path installs
// for pyramids: one histogram observation per scale sweep, on a
// pre-resolved child.
func (m *servedModel) observeSweep(scaleIndex, factor int, seconds float64) {
	if scaleIndex >= 0 && scaleIndex < len(m.scaleSweep) {
		m.scaleSweep[scaleIndex].Observe(seconds)
	}
}

// ruleLabel renders the flat index back to its label ("other" past the
// cap) — the drift tracker uses it to name the drifting rule.
func (m *servedModel) ruleLabel(idx int) string {
	if idx < 0 || idx >= len(m.labels) {
		return "other"
	}
	return m.labels[idx]
}
