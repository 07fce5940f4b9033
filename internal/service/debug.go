package service

import (
	"net/http"
	"strconv"

	"rbpebble/internal/obs"
)

// SolvesDebugResponse is the GET /debug/solves body: the most recent
// per-solve telemetry records, newest first, plus the all-time count
// (including records the ring has since evicted). The cluster proxy
// fans this endpoint across the fleet and merges the rings.
type SolvesDebugResponse struct {
	Total   uint64            `json:"total"`
	Records []obs.SolveRecord `json:"records"`
}

// handleDebugSolves serves the telemetry ring: GET /debug/solves?n=K
// returns the K most recent records (all retained records when n is
// absent or non-positive).
func (s *Server) handleDebugSolves(w http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	writeJSON(w, SolvesDebugResponse{Total: s.tel.Total(), Records: s.tel.Recent(n)})
}

// handleDebugTrace serves one retained trace's span tree:
// GET /debug/trace/{id}.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.recorder.Lookup(r.PathValue("id"))
	if tr == nil {
		httpError(w, http.StatusNotFound, "unknown trace")
		return
	}
	writeJSON(w, tr.View())
}

// SearchDebugResponse is the GET /debug/jobs/{id}/search body: an async
// job's most recent live engine-introspection snapshot. Snapshot is
// null until the solve's first sample (queued jobs, cache hits, solves
// shorter than the sampling cadence); after completion the last
// snapshot is retained alongside the terminal status. The cluster proxy
// fans this endpoint across the fleet and fills Node.
type SearchDebugResponse struct {
	Job      string              `json:"job"`
	Status   string              `json:"status"`
	Node     string              `json:"node,omitempty"`
	Snapshot *obs.SearchSnapshot `json:"snapshot"`
}

// handleDebugJobSearch serves a job's live search telemetry:
// GET /debug/jobs/{id}/search.
func (s *Server) handleDebugJobSearch(w http.ResponseWriter, r *http.Request) {
	s.jobMu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.jobMu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, SearchDebugResponse{
		Job:      j.id,
		Status:   j.snapshot().Status,
		Snapshot: j.search.Load(),
	})
}
