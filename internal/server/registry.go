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
	"cdt/internal/telemetry"
)

// Registry serves trained models loaded from one of two backends: a
// directory of versioned JSON artifacts (one `<name>.json` per model,
// the format written by Model.Save), or a modelstore.Store, where each
// model resolves through its "current" promotion pointer and carries a
// version number. Lookups take a read lock; Reload builds a complete
// new model set off to the side and swaps it in atomically under the
// write lock, so in-flight requests keep the cdt.Artifact they
// already resolved — artifacts are immutable after load, which makes
// hot-reload (and store promotes/rollbacks, which are just reloads of
// moved pointers) safe without draining traffic. Immutability includes
// each model's compiled rule engine (internal/engine): Load compiles it
// once, and every request against the model — batch detects and stream
// sessions alike — matches through that one shared read-only engine.
type Registry struct {
	dir     string
	store   *modelstore.Store  // nil in directory mode
	reloads *telemetry.Counter // set by server.New; nil for a bare registry

	mu       sync.RWMutex
	models   map[string]cdt.Artifact
	versions map[string]int // store mode: serving version per name; nil in dir mode
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

// NewRegistry loads every model in dir. The directory must exist and
// every *.json file in it must be a loadable model — a serving process
// should fail fast on a bad artifact rather than come up partial.
func NewRegistry(dir string) (*Registry, error) {
	models, err := loadModelDir(dir)
	if err != nil {
		return nil, err
	}
	return &Registry{dir: dir, models: models}, nil
}

// NewStoreRegistry resolves every promoted "current" pointer in the
// store. At least one model must be promoted — a serving process over
// an empty store has nothing to serve.
func NewStoreRegistry(st *modelstore.Store) (*Registry, error) {
	models, versions, err := loadStore(st)
	if err != nil {
		return nil, err
	}
	return &Registry{store: st, models: models, versions: versions}, nil
}

// loadStore resolves the store's promoted models.
func loadStore(st *modelstore.Store) (map[string]cdt.Artifact, map[string]int, error) {
	models, versions, err := st.CurrentModels()
	if err != nil {
		return nil, nil, fmt.Errorf("server: %w", err)
	}
	if len(models) == 0 {
		return nil, nil, fmt.Errorf("server: no promoted models in store %s", st.Dir())
	}
	return models, versions, nil
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

// Get resolves a model by name. The returned artifact stays valid
// across reloads (it is immutable; the registry only swaps the map).
func (r *Registry) Get(name string) (cdt.Artifact, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[name]
	return m, ok
}

// Reload re-resolves the backend (directory contents or store "current"
// pointers) and atomically replaces the whole model set. On any load
// error the previous set stays untouched, so a corrupt artifact can
// never take down serving. Returns the number of models now live.
func (r *Registry) Reload() (int, error) {
	var (
		models   map[string]cdt.Artifact
		versions map[string]int
		err      error
	)
	if r.store != nil {
		models, versions, err = loadStore(r.store)
	} else {
		models, err = loadModelDir(r.dir)
	}
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.models = models
	r.versions = versions
	r.mu.Unlock()
	if r.reloads != nil {
		r.reloads.Inc()
	}
	return len(models), nil
}

// Version returns the store version serving as name (0, false in
// directory mode or for unknown names).
func (r *Registry) Version(name string) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.versions[name]
	return v, ok
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
		info := m.Info()
		mi := ModelInfo{
			Name:     name,
			Omega:    info.Omega,
			Delta:    info.Delta,
			NumRules: info.NumRules,
			Version:  r.versions[name],
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
