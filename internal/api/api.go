// Package api defines the versioned wire protocol of the serving layer —
// the one place the request/response documents, the error envelope, and
// the error codes live. internal/server implements the endpoints,
// internal/cluster speaks it to remote shards, and Client (client.go) is
// the typed HTTP client; all three share these definitions so the wire
// surface cannot drift apart per package.
//
// Endpoints:
//
//	POST /v1/query   QueryRequest  -> QueryResponse
//	POST /v1/batch   BatchRequest  -> BatchResponse
//	POST /v1/mutate  MutateRequest -> MutateResponse
//	GET  /healthz    (ad-hoc document; see server)
//	GET  /metrics    (Prometheus text; the catalog is internal/obs)
//
// Every non-2xx response carries the one error envelope:
//
//	{"code": "overloaded", "message": "...", "retry_after": 10}
//
// Field names are part of the wire protocol: add, never rename.
package api

import (
	"fmt"

	"rkranks/internal/core"
	"rkranks/internal/graph"
)

// Algorithm is the wire form of a query engine name. Typed so decode-time
// validation rejects unknown names at the API boundary instead of deep in
// the pool.
type Algorithm string

// Wire algorithm names, matching core.Algorithm.String.
const (
	AlgoNaive    Algorithm = "naive"
	AlgoStatic   Algorithm = "static"
	AlgoDynamic  Algorithm = "dynamic"
	AlgoIndexed  Algorithm = "indexed"
	AlgoHubLabel Algorithm = "hublabel"
)

// Core resolves the wire name to the engine constant. The empty string
// resolves to fallback (the server's default algorithm).
func (a Algorithm) Core(fallback core.Algorithm) (core.Algorithm, error) {
	if a == "" {
		return fallback, nil
	}
	return core.ParseAlgorithm(string(a))
}

// AlgorithmOf returns the wire name of an engine constant.
func AlgorithmOf(a core.Algorithm) Algorithm { return Algorithm(a.String()) }

// Error codes of the wire protocol, stable for clients to branch on.
const (
	CodeInvalidArgument  = "invalid_argument"
	CodeOverloaded       = "overloaded"
	CodeDraining         = "draining"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeCanceled         = "canceled"
	CodeInternal         = "internal"
	// CodeUnimplemented marks an endpoint the backend cannot serve (e.g.
	// /v1/mutate against an immutable backend).
	CodeUnimplemented = "unimplemented"
	// CodeGenerationSkew marks a cluster answer refused because shards
	// were observed on different graph generations mid-mutation; the
	// request is safe to retry.
	CodeGenerationSkew = "generation_skew"
)

// ErrorBody is the error envelope every non-2xx response carries.
type ErrorBody struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// RetryAfterSec mirrors the Retry-After header on 429/503 responses
	// (0 when the response carries no hint).
	RetryAfterSec int `json:"retry_after,omitempty"`
	// RequestID echoes the request's X-Request-Id (server-generated when
	// the request carried none), so an error — a 503 generation_skew, a
	// shed 429 — correlates with its access-log line and trace.
	RequestID string `json:"request_id,omitempty"`
}

// QueryRequest is the /v1/query request document.
type QueryRequest struct {
	// Algorithm is naive|static|dynamic|indexed|hublabel; empty uses the
	// server default.
	Algorithm Algorithm `json:"algorithm,omitempty"`
	Q         int32     `json:"q"`
	K         int       `json:"k"`
	// TimeoutMS is the per-request deadline in milliseconds; 0 uses the
	// server default, values above the server cap are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MergedK is set by a cluster coordinator on its shard calls: the k
	// of the client's query the shard answers are merged into. The shard
	// then prunes with the whole cluster's bounds and may withhold
	// candidates that cannot reach the merged top k (core.WithMergedK).
	// 0 means none; otherwise it must be at least K and, for indexed
	// queries, at most the index K.
	MergedK int `json:"merged_k,omitempty"`
}

// BatchRequest is the /v1/batch request document.
type BatchRequest struct {
	Algorithm Algorithm `json:"algorithm,omitempty"`
	Queries   []int32   `json:"queries"`
	K         int       `json:"k"`
	TimeoutMS int64     `json:"timeout_ms,omitempty"`
	// MergedK applies to every query of the batch (see QueryRequest).
	MergedK int `json:"merged_k,omitempty"`
}

// Entry is one (node, rank) result pair on the wire.
type Entry struct {
	Node int32 `json:"node"`
	Rank int32 `json:"rank"`
}

// QueryResponse is the /v1/query response document (and each element of a
// batch response).
type QueryResponse struct {
	Query     int32     `json:"query"`
	K         int       `json:"k"`
	Algorithm Algorithm `json:"algorithm"`
	Entries   []Entry   `json:"entries"`
	// Partial marks a degraded cluster answer: one or more shards were
	// unavailable, so entries owned by them may be missing. Single-node
	// servers never set it.
	Partial bool `json:"partial,omitempty"`
	// Generation is the graph generation the answer was computed on
	// (0 for backends without live mutations). A cluster coordinator
	// verifies it across shards so a merge never mixes generations.
	Generation uint64      `json:"generation,omitempty"`
	ElapsedMS  float64     `json:"elapsed_ms"`
	Stats      *core.Stats `json:"stats,omitempty"`
	// RequestID echoes the request's X-Request-Id (server-generated when
	// the request carried none). Empty on batch elements — the enclosing
	// BatchResponse carries the batch's ID once.
	RequestID string `json:"request_id,omitempty"`
}

// BatchResponse is the /v1/batch response document.
type BatchResponse struct {
	Algorithm Algorithm       `json:"algorithm"`
	K         int             `json:"k"`
	Results   []QueryResponse `json:"results"`
	ElapsedMS float64         `json:"elapsed_ms"`
	RequestID string          `json:"request_id,omitempty"`
}

// Mutation op names on the wire, matching graph.MutationOp.String.
const (
	OpInsertEdge = "insert_edge"
	OpDeleteEdge = "delete_edge"
	OpSetWeight  = "set_weight"
	OpAddVertex  = "add_vertex"
)

// Mutation is one live-graph update on the wire.
type Mutation struct {
	// Op is insert_edge|delete_edge|set_weight|add_vertex.
	Op string `json:"op"`
	U  int32  `json:"u,omitempty"`
	V  int32  `json:"v,omitempty"`
	// Weight applies to insert_edge and set_weight.
	Weight float64 `json:"weight,omitempty"`
	// Count is how many vertices add_vertex appends (0 means 1).
	Count int `json:"count,omitempty"`
}

// Graph decodes the wire mutation into the typed graph mutation,
// validating the op name (endpoint-range and weight validation happen in
// the edge store, where the graph is known).
func (m Mutation) Graph() (graph.Mutation, error) {
	switch m.Op {
	case OpInsertEdge:
		return graph.InsertEdge(m.U, m.V, m.Weight), nil
	case OpDeleteEdge:
		return graph.DeleteEdge(m.U, m.V), nil
	case OpSetWeight:
		return graph.SetWeight(m.U, m.V, m.Weight), nil
	case OpAddVertex:
		return graph.AddVertices(m.Count), nil
	}
	return graph.Mutation{}, fmt.Errorf("unknown mutation op %q (want %s|%s|%s|%s)",
		m.Op, OpInsertEdge, OpDeleteEdge, OpSetWeight, OpAddVertex)
}

// MutationOf encodes a typed graph mutation into its wire form.
func MutationOf(m graph.Mutation) Mutation {
	return Mutation{Op: m.Op.String(), U: m.U, V: m.V, Weight: m.Weight, Count: m.Count}
}

// DecodeMutations decodes a wire batch, failing on the first invalid op.
func DecodeMutations(ms []Mutation) ([]graph.Mutation, error) {
	out := make([]graph.Mutation, len(ms))
	for i, m := range ms {
		gm, err := m.Graph()
		if err != nil {
			return nil, fmt.Errorf("mutation %d: %w", i, err)
		}
		out[i] = gm
	}
	return out, nil
}

// MutateRequest is the /v1/mutate request document: one atomic batch —
// either every mutation applies or none does.
type MutateRequest struct {
	Mutations []Mutation `json:"mutations"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
}

// MutateResponse is the /v1/mutate response document. The batch is fully
// applied when it arrives: subsequent queries observe the new graph.
type MutateResponse struct {
	// Applied is the number of mutations applied (the whole batch).
	Applied int `json:"applied"`
	// Generation is the graph generation after the batch; every applied
	// batch advances it, orphaning cached answers.
	Generation uint64 `json:"generation"`
	// Rebuilt reports the expensive path: the CSR graph was rebuilt and
	// atomically swapped (topology changed). False means the batch was
	// weight-only and patched in place under the epoch barrier.
	Rebuilt bool `json:"rebuilt"`
	// Nodes and Edges describe the graph after the batch.
	Nodes     int     `json:"nodes"`
	Edges     int64   `json:"edges"`
	ElapsedMS float64 `json:"elapsed_ms"`
	RequestID string  `json:"request_id,omitempty"`
}
