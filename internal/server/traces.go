package server

// GET /debug/traces: the in-memory span ring, newest-first — the
// request-scoped view the aggregate /metrics histograms cannot give. It
// holds head-sampled requests' span trees and, with a slow threshold
// set on the tracer, every other slow request as a root "request" span;
// pasting a span's trace ID into ?trace= narrows the list to that one
// request.

import (
	"net/http"

	"cdt/internal/trace"
)

// tracesResponse is the GET /debug/traces payload.
type tracesResponse struct {
	// Spans holds finished spans, newest first (bounded by the tracer's
	// ring size). Empty when tracing is disabled or nothing kept yet.
	Spans []trace.SpanData `json:"spans"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	spans := s.tracer.Snapshot() // nil-safe: no tracer → no spans
	if id := r.URL.Query().Get("trace"); id != "" {
		filtered := spans[:0]
		for _, sd := range spans {
			if sd.TraceID == id {
				filtered = append(filtered, sd)
			}
		}
		spans = filtered
	}
	if spans == nil {
		spans = []trace.SpanData{}
	}
	writeJSON(w, http.StatusOK, tracesResponse{Spans: spans})
}
