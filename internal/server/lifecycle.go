package server

// Model-lifecycle endpoints, live when the server is backed by a
// modelstore.Store:
//
//	POST   /models/{name}/shadow    {"version": N}  start shadowing
//	GET    /models/{name}/shadow                    agreement summary
//	DELETE /models/{name}/shadow                    stop shadowing
//	POST   /models/{name}/promote   {"version": N}  promote atomically
//	POST   /models/{name}/rollback                  undo last promote
//
// Promote is atomic from the traffic's point of view: the store pointer
// moves first, then the registry swaps in a fresh record for the model
// in one write; if loading it fails the pointer is rolled back, so
// serving state and store state never diverge. Live stream sessions pin
// the model they were created with, so promotion never disturbs them;
// their readings stop feeding drift, which now tracks the new record.

import (
	"fmt"
	"net/http"

	"cdt/internal/modelstore"
)

// requireStore rejects lifecycle requests on a directory-backed server.
func (s *Server) requireStore(w http.ResponseWriter) *modelstore.Store {
	st := s.registry.Store()
	if st == nil {
		writeError(w, http.StatusBadRequest,
			"model lifecycle endpoints require a store-backed server (-store)")
	}
	return st
}

type versionRequest struct {
	Version int `json:"version"`
}

func (s *Server) handleShadowStart(w http.ResponseWriter, r *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	name := r.PathValue("name")
	var req versionRequest
	if !readJSON(w, r, &req) {
		return
	}
	incumbent, ok := s.registry.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q", name)
		return
	}
	if req.Version == incumbent.version {
		writeError(w, http.StatusBadRequest,
			"version %d is already serving as %q", req.Version, name)
		return
	}
	candidate, _, err := st.LoadVersion(name, req.Version)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	// Shadow scoring replays incumbent traffic through the candidate and
	// compares detection point ranges; that comparison is defined within
	// one artifact kind (two plain models compare window ranges, two
	// pyramids fused point ranges) but not across kinds — a fused run and
	// a single window describe different things even when they overlap.
	if ck, ik := candidate.Info().Kind, incumbent.info.Kind; ck != ik {
		writeError(w, http.StatusBadRequest,
			"shadow evaluation requires a candidate of the serving kind %q; version %d of %q is a %q artifact",
			ik, req.Version, name, ck)
		return
	}
	sh := s.shadows.Start(name, req.Version, candidate)
	_ = st.Note(modelstore.EventShadow, name, req.Version,
		fmt.Sprintf("shadow started against serving version %d", incumbent.version))
	writeJSON(w, http.StatusCreated, sh.summary())
}

func (s *Server) handleShadowSummary(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sh := s.shadows.Get(name)
	if sh == nil {
		writeError(w, http.StatusNotFound, "no shadow active for model %q", name)
		return
	}
	writeJSON(w, http.StatusOK, sh.summary())
}

func (s *Server) handleShadowStop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sh := s.shadows.Get(name)
	if sh == nil || !s.shadows.Stop(name) {
		writeError(w, http.StatusNotFound, "no shadow active for model %q", name)
		return
	}
	if st := s.registry.Store(); st != nil {
		_ = st.Note(modelstore.EventShadow, name, sh.Version, "shadow stopped")
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	name := r.PathValue("name")
	var req versionRequest
	if !readJSON(w, r, &req) {
		return
	}
	var previous int
	if m, ok := s.registry.Get(name); ok {
		previous = m.version
	}
	if err := st.Promote(name, req.Version); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if err := s.registry.reloadModel(name); err != nil {
		// The new pointer does not load; put the old one back so the store
		// and the (unchanged) serving set stay in agreement.
		if _, rbErr := st.Rollback(name); rbErr != nil {
			writeError(w, http.StatusInternalServerError,
				"promote reload failed (%v) and rollback failed too (%v)", err, rbErr)
			return
		}
		writeError(w, http.StatusInternalServerError,
			"promote rolled back: reloading promoted version: %v", err)
		return
	}
	// The candidate (if it was shadowing) is now the incumbent.
	if sh := s.shadows.Get(name); sh != nil && sh.Version == req.Version {
		s.shadows.Stop(name)
		_ = st.Note(modelstore.EventShadow, name, req.Version, "shadow stopped: candidate promoted")
	}
	s.tel.promotes.Inc()
	writeJSON(w, http.StatusOK, map[string]any{
		"model":    name,
		"version":  req.Version,
		"previous": previous,
	})
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	name := r.PathValue("name")
	version, err := st.Rollback(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if err := s.registry.reloadModel(name); err != nil {
		// Symmetric to promote: restore the pointer we just moved.
		if _, rbErr := st.Rollback(name); rbErr != nil {
			writeError(w, http.StatusInternalServerError,
				"rollback reload failed (%v) and restore failed too (%v)", err, rbErr)
			return
		}
		writeError(w, http.StatusInternalServerError,
			"rollback undone: reloading previous version: %v", err)
		return
	}
	s.tel.rollbacks.Inc()
	writeJSON(w, http.StatusOK, map[string]any{
		"model":   name,
		"version": version,
	})
}
