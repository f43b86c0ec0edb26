package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	cdt "cdt"
	"cdt/internal/modelstore"
)

// Registry serves trained models loaded from one of two backends: a
// directory of versioned JSON artifacts (one `<name>.json` per model,
// the format written by Model.Save), or a modelstore.Store, where each
// model resolves through its "current" promotion pointer and carries a
// version number. Each served artifact lives in one servedModel record
// built at load. Lookups take a read lock; Reload builds a complete new
// record set off to the side and swaps it in under the write lock, and
// a promote or rollback swaps in a fresh record for one name. Writers
// are serialized: Reload and reloadModel each hold reloadMu from
// reading the store's pointers to the swap, so a reload that read a
// pointer before a promote moved it cannot swap in over the promote's
// record. reloadMu is taken before mu and before the store's own lock;
// mu and the store's lock never nest, and the store never calls the
// registry. The records they replace are retired: requests and stream
// sessions keep the record they already resolved — artifacts are
// immutable after load, which makes hot-reload safe without draining
// traffic — but a retired record no longer feeds drift. Immutability
// includes each model's compiled rule engine (internal/engine): Load
// compiles it once, and every request against the model — batch detects
// and stream sessions alike — matches through that one shared read-only
// engine.
type Registry struct {
	dir   string
	store *modelstore.Store // nil in directory mode
	tel   *serverMetrics

	// reloadMu serializes the writers (Reload, reloadModel) across load
	// plus swap. Get never takes it, so requests never wait on a
	// reload's file I/O.
	reloadMu sync.Mutex
	mu       sync.RWMutex
	models   map[string]*servedModel
}

// ModelInfo summarizes one registered model for listings.
type ModelInfo struct {
	Name     string `json:"name"`
	Omega    int    `json:"omega"`
	Delta    int    `json:"delta"`
	NumRules int    `json:"num_rules"`
	// Version is the model-store version serving as this model (0 when
	// the registry loads from a flat directory).
	Version int `json:"version,omitempty"`
	// Kind distinguishes artifact families; empty for plain models (the
	// pre-pyramid listing shape), "pyramid" for resolution pyramids.
	Kind string `json:"kind,omitempty"`
	// Scales lists a pyramid's downsample factors (nil for plain models).
	Scales []int `json:"scales,omitempty"`
	// Fusion renders a pyramid's fusion policy with its parameters
	// ("any", "2-of-n", "weighted(>=0.8)"); empty for plain models.
	Fusion string `json:"fusion,omitempty"`
	// FusionWeights lists a weighted pyramid's learned per-scale weights,
	// aligned with Scales; nil otherwise.
	FusionWeights []float64 `json:"fusion_weights,omitempty"`
}

// newRegistry loads the backend: every model in dir, or every
// promoted "current" pointer in st. A directory's *.json files must all
// load, and a store must have at least one promoted model — a serving
// process should fail fast rather than come up partial or empty.
func newRegistry(dir string, st *modelstore.Store, tel *serverMetrics) (*Registry, error) {
	r := &Registry{dir: dir, store: st, tel: tel}
	models, err := r.load()
	if err != nil {
		return nil, err
	}
	r.models = models
	return r, nil
}

// load resolves the backend into a fresh record set.
func (r *Registry) load() (map[string]*servedModel, error) {
	var (
		arts     map[string]cdt.Artifact
		versions map[string]int // nil in directory mode
		err      error
	)
	if r.store != nil {
		arts, versions, err = r.store.CurrentModels()
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		if len(arts) == 0 {
			return nil, fmt.Errorf("server: no promoted models in store %s", r.store.Dir())
		}
	} else if arts, err = loadModelDir(r.dir); err != nil {
		return nil, err
	}
	models := make(map[string]*servedModel, len(arts))
	for name, art := range arts {
		models[name] = newServedModel(r.tel, name, art, versions[name])
	}
	return models, nil
}

// loadModelDir reads every *.json artifact in dir, keyed by basename.
func loadModelDir(dir string) (map[string]cdt.Artifact, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: reading model dir: %w", err)
	}
	models := make(map[string]cdt.Artifact)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		m, err := cdt.LoadAny(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("server: loading %s: %w", path, err)
		}
		models[strings.TrimSuffix(e.Name(), ".json")] = m
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("server: no *.json models in %s", dir)
	}
	return models, nil
}

// Get resolves the record serving under name. The record stays valid
// after a reload replaces it (its artifact is immutable); it only stops
// feeding drift.
func (r *Registry) Get(name string) (*servedModel, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[name]
	return m, ok
}

// Reload re-resolves the backend (directory contents or store "current"
// pointers) and replaces every record, retiring the old ones. On any
// load error the previous set stays untouched, so a corrupt artifact
// can never take down serving. Returns the number of models now live.
// It holds r.reloadMu across load and swap, and takes r.mu only for the
// swap.
func (r *Registry) Reload() (int, error) {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	models, err := r.load()
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	for _, m := range r.models {
		m.retire()
	}
	r.models = models
	r.mu.Unlock()
	r.tel.reloads.Inc()
	return len(models), nil
}

// reloadModel replaces name's record with its store's current version,
// retiring the old record — the promote and rollback path, which moves
// one pointer and so reloads one model. On a load error the old record
// keeps serving. Like Reload, it holds r.reloadMu across load and swap
// and takes r.mu only for the swap.
func (r *Registry) reloadModel(name string) error {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	art, v, err := r.store.LoadCurrent(name)
	if err != nil {
		return err
	}
	m := newServedModel(r.tel, name, art, v.Version)
	r.mu.Lock()
	if old := r.models[name]; old != nil {
		old.retire()
	}
	r.models[name] = m
	r.mu.Unlock()
	r.tel.reloads.Inc()
	return nil
}

// stale lists the serving models marked stale, sorted for stable
// /healthz output, and the rule label each was marked under (when the
// model has labeled rules).
func (r *Registry) stale() ([]string, map[string]string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var names []string
	rules := make(map[string]string)
	for name, m := range r.models {
		m.mu.Lock()
		stale, rule := m.drift.stale, m.drift.rule
		m.mu.Unlock()
		if !stale {
			continue
		}
		names = append(names, name)
		if rule != "" {
			rules[name] = rule
		}
	}
	sort.Strings(names)
	return names, rules
}

// Store returns the backing model store (nil in directory mode).
func (r *Registry) Store() *modelstore.Store { return r.store }

// CheckSource verifies the registry's backend is loadable right now —
// the /healthz readiness view. Directory mode checks the directory is
// readable and still holds at least one artifact; store mode defers to
// the store's manifest/blob check.
func (r *Registry) CheckSource() error {
	if r.store != nil {
		return r.store.CheckReady()
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("server: model dir unreadable: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			return nil
		}
	}
	return fmt.Errorf("server: no *.json models in %s", r.dir)
}

// List returns the registered models sorted by name.
func (r *Registry) List() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelInfo, 0, len(r.models))
	for name, m := range r.models {
		info := m.info
		mi := ModelInfo{
			Name:     name,
			Omega:    info.Omega,
			Delta:    info.Delta,
			NumRules: info.NumRules,
			Version:  m.version,
		}
		// Plain models keep the pre-pyramid listing shape (no kind field).
		if info.Kind != cdt.KindModel {
			mi.Kind = info.Kind
			mi.Scales = info.Scales
			mi.Fusion = info.Fusion
			mi.FusionWeights = info.FusionWeights
		}
		out = append(out, mi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}
