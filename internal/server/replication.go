// Index replication endpoints: a leader serves its dynamic index so
// replicas and cold-started shards inherit learned state instead of
// re-deriving it query by query.
//
//	GET /v1/index/snapshot          binary ridx format + cursor headers
//	GET /v1/index/deltas?since=N    JSON batch of refinement deltas
//
// Both bypass admission control like /healthz: replication traffic must
// keep flowing while the query path is saturated, or a struggling
// replica could never catch up and rejoin. The capability is probed
// through the backend's Unwrap chain — a pool whose shared index is
// wrapped in ridx.Replicated answers; everything else (clusters, live
// stores, unreplicated pools) gets 501 unimplemented.
package server

import (
	"net/http"
	"strconv"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/core"
	"rkranks/internal/ridx"
)

// maxDeltaBatch bounds one /v1/index/deltas response; followers loop
// until Next stops advancing.
const maxDeltaBatch = 8192

// replicatedIndex probes the backend for a replication-capable index.
func (s *Server) replicatedIndex() (*ridx.Replicated, bool) {
	src, ok := core.Probe[interface{ Index() ridx.Index }](s.backend)
	if !ok {
		return nil, false
	}
	repl, ok := src.Index().(*ridx.Replicated)
	return repl, ok
}

func (s *Server) handleIndexSnapshot(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	r, tr := s.begin(w, r, routeOther)
	defer tr.Release()
	repl, ok := s.replicatedIndex()
	if !ok {
		s.reject(w, r, start, http.StatusNotImplemented, codeUnimplemented,
			"backend serves no replicated index")
		return
	}
	snap, seq, gen := repl.SnapshotState()
	w.Header().Set(api.HeaderIndexSeq, strconv.FormatUint(seq, 10))
	w.Header().Set(api.HeaderIndexGeneration, strconv.FormatUint(gen, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	// Header already sent; a mid-body write error just truncates the
	// stream, which the follower's ridx.Read detects.
	_ = snap.Write(w)
	s.om.IndexSnapshotsServed.Inc()
	s.observe(r, start, http.StatusOK, nil, 0)
}

func (s *Server) handleIndexDeltas(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	r, tr := s.begin(w, r, routeOther)
	defer tr.Release()
	repl, ok := s.replicatedIndex()
	if !ok {
		s.reject(w, r, start, http.StatusNotImplemented, codeUnimplemented,
			"backend serves no replicated index")
		return
	}
	since, err := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	if err != nil {
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument,
			"since must be a uint64 delta cursor")
		return
	}
	max := maxDeltaBatch
	if raw := r.URL.Query().Get("max"); raw != "" {
		m, err := strconv.Atoi(raw)
		if err != nil || m < 1 {
			s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument,
				"max must be a positive integer")
			return
		}
		if m < max {
			max = m
		}
	}
	ds, next, reachable := repl.DeltasSince(since, max)
	resp := api.IndexDeltasResponse{
		Since:            since,
		Next:             next,
		IndexGeneration:  repl.Generation(),
		SnapshotRequired: !reachable,
		Deltas:           api.DeltasOf(ds),
		RequestID:        tr.ID(),
	}
	s.om.IndexDeltasServed.Add(int64(len(ds)))
	writeJSON(w, http.StatusOK, resp)
	s.observe(r, start, http.StatusOK, nil, 0)
}
