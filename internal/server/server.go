// Package server is the HTTP/JSON serving layer over core.Pool. It wraps
// a pool (built with NewPoolWithIndex, all traffic feeds one shared
// concurrent index) with the machinery a real service requires and the
// engine layer does not provide:
//
//   - admission control: a bounded in-flight limit plus a bounded wait
//     queue; beyond both, requests are shed immediately with 429 and a
//     Retry-After hint, so overload degrades throughput, never latency of
//     admitted work;
//   - per-request deadlines threaded as context into the engine layer,
//     which cancels the SDS-tree traversal and every in-flight rank
//     refinement within a bounded number of settles;
//   - observability: /healthz, /metrics (the obs catalog in Prometheus
//     text: request counts and latency histograms by route, per-stage
//     latency, admission occupancy, engine counters), the
//     /debug/requestz flight recorder, and structured JSON access logs;
//   - graceful drain: Drain stops admission (503) while every admitted
//     request runs to completion, so a SIGTERM never drops an in-flight
//     response.
//
// Endpoints (documents defined in internal/api, the one home of the wire
// protocol):
//
//	POST /v1/query          {"algorithm":"indexed","q":12,"k":10,"timeout_ms":500}
//	POST /v1/batch          {"algorithm":"dynamic","queries":[1,2,3],"k":10}
//	POST /v1/mutate         {"mutations":[{"op":"set_weight","u":3,"v":9,"weight":2}]}
//	GET  /v1/index/snapshot (binary index snapshot; see replication.go)
//	GET  /v1/index/deltas?since=N
//	GET  /healthz
//	GET  /metrics
//	GET  /debug/requestz
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/live"
	"rkranks/internal/obs"
)

// Backend abstracts the query executor behind the HTTP layer: a local
// core.Pool, or a cluster coordinator that scatters each query across
// shard backends (internal/cluster). The server is agnostic — admission,
// deadlines, observability, and drain apply identically to both.
type Backend interface {
	QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error)
	QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error)
	// Size is the backend's concurrent-query capacity (engine slots);
	// admission defaults derive from it.
	Size() int
	// Indexed reports whether the backend serves Indexed queries; the
	// default algorithm derives from it.
	Indexed() bool
}

// Mutator is the optional Backend capability behind POST /v1/mutate: a
// live store (internal/live) serving a mutable graph, or a cluster
// coordinator fanning mutation batches to its shards. Probed through
// Unwrap chains like every capability, so a cache-wrapped live store
// still accepts mutations; backends without it answer /v1/mutate with
// 501 unimplemented.
type Mutator interface {
	Mutate(ctx context.Context, ms []graph.Mutation) (live.MutateInfo, error)
}

// Optional Backend capabilities, probed with type assertions so the
// server needs no dependency on internal/cluster or internal/cache:
//
//   - interface{ ShardCount() int } extends /healthz with the shard count;
//   - interface{ CSRBytes() int64 } samples the rkranks_csr_bytes gauge,
//     the memory footprint of the CSR graph views the backend traverses
//     (core.Pool implements it; the server's own graph is the fallback);
//   - interface{ HubLabeled() bool } extends /healthz with whether the
//     backend serves HubLabel queries, and
//     interface{ HubLabelBytes() int64 } samples rkranks_hub_label_bytes
//     (core.Pool and cluster coordinators implement both);
//   - interface{ CacheBytes() int64 } and interface{ CacheEntries() int64 }
//     sample the response cache's occupancy gauges;
//   - interface{ Generation() uint64 } extends /healthz with the backend's
//     graph generation and samples rkranks_generation, and
//     interface{ Graph() *graph.Graph } lets /healthz report the current
//     (possibly mutated) graph instead of the boot-time one (live stores
//     and mutation-fanning coordinators implement both);
//   - interface{ Index() ridx.Index } holding a *ridx.Replicated serves
//     the replication endpoints and samples rkranks_index_seq and
//     rkranks_index_generation;
//   - interface{ Unwrap() any } marks a decorator (the response cache):
//     probes walk the chain, so a cached cluster still reports its
//     shards;
//   - error values implementing HTTPStatuser choose their own HTTP
//     mapping, and RetryAfterHinter additionally sets Retry-After
//     (cluster overload errors carry the max shard hint).
type (
	// HTTPStatuser is implemented by backend errors that map to a
	// specific HTTP status and wire error code.
	HTTPStatuser interface {
		error
		HTTPStatus() (status int, code string)
	}
	// RetryAfterHinter is implemented by backend errors that carry a
	// Retry-After hint (e.g. the max across overloaded shards).
	RetryAfterHinter interface {
		error
		RetryAfterHint() time.Duration
	}
)

// Config configures a Server. One of Backend or Pool is required;
// everything else defaults to production-sane values.
type Config struct {
	// Backend serves the queries: a core.Pool or a cluster.Coordinator.
	// When nil, Pool is used.
	Backend Backend
	// Pool is the classic single-node backend. Build it with
	// core.NewPoolWithIndex to make Indexed the default algorithm over
	// one shared concurrent index. Ignored when Backend is set.
	Pool *core.Pool
	// Graph is the backend's graph, used for /healthz metadata and request
	// validation context. Required.
	Graph *graph.Graph

	// DefaultAlgorithm answers requests that omit "algorithm"
	// (naive|static|dynamic|indexed). Empty defaults to indexed when the
	// pool has an index, dynamic otherwise.
	DefaultAlgorithm string

	// MaxInFlight bounds requests being actively served (each occupies at
	// most one pool engine; batches also count as one). <= 0 defaults to
	// 2x the pool size: enough to keep every engine busy while the next
	// wave decodes.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; beyond it
	// requests are rejected with 429 + Retry-After. <= 0 defaults to
	// 4x MaxInFlight.
	MaxQueue int

	// DefaultTimeout applies when a request carries no timeout_ms.
	// <= 0 defaults to 10s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts. <= 0 defaults to 60s.
	MaxTimeout time.Duration

	// MaxBatch bounds queries per /v1/batch request, and both mutations
	// and added vertices per /v1/mutate batch. <= 0 defaults to 1024.
	MaxBatch int

	// AccessLog receives one structured record per request. Nil disables
	// access logging (metrics still aggregate).
	AccessLog *slog.Logger

	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the serving
	// mux, so CPU/heap/alloc profiles of the query path can be captured in
	// situ (rkserve/rkcluster -pprof; see CONTRIBUTING.md for the
	// workflow). Off by default: the endpoints expose internals and a CPU
	// profile costs ~1% while running, so production opts in deliberately.
	EnablePprof bool

	// HealthExtra is merged into the /healthz document (reserved keys are
	// not overridden). rkserve uses it to publish its -shard spec so a
	// cluster coordinator can verify shard ownership at startup instead
	// of merging overlapping candidate classes silently wrong.
	HealthExtra map[string]any

	// Metrics is the observability catalog the server records into and
	// serves at GET /metrics when it has a registry. Share one instance
	// (built with obs.NewMetrics over one registry) across the cache,
	// cluster, live store, and server of a process so /metrics aggregates
	// them all. Nil creates a private registry-backed catalog. At most one
	// Server may record into a registry-backed catalog — the server
	// registers its gauges against it.
	Metrics *obs.Metrics
	// SlowQueryThreshold marks a request slow for the flight recorder
	// (GET /debug/requestz) and the slow-query log. 0 defaults to 500ms;
	// negative records every request — the -slow-query-ms 0 debugging
	// posture.
	SlowQueryThreshold time.Duration
}

// Server is the HTTP serving layer. Create with New, expose via Handler,
// stop with Drain.
type Server struct {
	cfg         Config
	backend     Backend
	defaultAlgo core.Algorithm
	mux         *http.ServeMux
	started     time.Time

	inflightSem chan struct{} // admission: active slots
	queueSem    chan struct{} // admission: waiting slots

	// drainMu makes the {check draining, inflight.Add(1)} pair in admit
	// atomic against Drain's flag flip: once Drain holds the write lock
	// and sets draining, every request is either already counted in
	// inflight (Drain waits for it) or will observe draining and be
	// refused — no request can slip between the flag and the WaitGroup.
	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup // every admitted request, for Drain

	metrics  *metrics
	om       *obs.Metrics
	recorder *obs.Recorder
}

// New validates cfg, applies defaults, and returns a ready Server.
func New(cfg Config) (*Server, error) {
	backend := cfg.Backend
	if backend == nil {
		if cfg.Pool == nil {
			return nil, fmt.Errorf("server: one of Config.Backend or Config.Pool is required")
		}
		backend = cfg.Pool
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("server: Config.Graph is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * backend.Size()
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	defaultAlgo := core.Dynamic
	if backend.Indexed() {
		defaultAlgo = core.Indexed
	}
	if cfg.DefaultAlgorithm != "" {
		var err error
		if defaultAlgo, err = core.ParseAlgorithm(cfg.DefaultAlgorithm); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	om := cfg.Metrics
	if om == nil {
		om = obs.NewMetrics(obs.NewRegistry())
	}
	slowThreshold := cfg.SlowQueryThreshold
	if slowThreshold == 0 {
		slowThreshold = 500 * time.Millisecond
	}
	s := &Server{
		cfg:         cfg,
		backend:     backend,
		defaultAlgo: defaultAlgo,
		mux:         http.NewServeMux(),
		started:     time.Now(),
		inflightSem: make(chan struct{}, cfg.MaxInFlight),
		queueSem:    make(chan struct{}, cfg.MaxQueue),
		metrics:     newMetrics(om),
		om:          om,
		recorder: obs.NewRecorder(obs.RecorderConfig{
			SlowThreshold: slowThreshold,
			Logger:        cfg.AccessLog,
		}),
	}
	s.registerGauges()
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/mutate", s.handleMutate)
	s.mux.HandleFunc("GET /v1/index/snapshot", s.handleIndexSnapshot)
	s.mux.HandleFunc("GET /v1/index/deltas", s.handleIndexDeltas)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/requestz", s.recorder.Handler())
	if om.Registry() != nil {
		s.mux.Handle("GET /metrics", om.Registry().Handler())
	}
	if cfg.EnablePprof {
		// Profiling requests bypass admission control on purpose: a CPU
		// profile of an overloaded server is exactly the artifact the
		// overload investigation needs.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// registerGauges wires the pull-sampled gauges: admission occupancy from
// the server's own semaphores, the rest probed through the backend's
// Unwrap chain (so a cache-wrapped cluster still reports its generation
// and the cache its occupancy). No-op on a catalog without a registry.
func (s *Server) registerGauges() {
	om := s.om
	om.RegisterGauge("rkranks_in_flight_requests", func() float64 { return float64(len(s.inflightSem)) })
	om.RegisterGauge("rkranks_queued_requests", func() float64 { return float64(len(s.queueSem)) })
	om.RegisterGauge("rkranks_draining", func() float64 {
		if s.Draining() {
			return 1
		}
		return 0
	})
	om.RegisterGauge("rkranks_pool_size", func() float64 { return float64(s.backend.Size()) })
	if gn, ok := probeBackend[interface{ Generation() uint64 }](s.backend); ok {
		om.RegisterGauge("rkranks_generation", func() float64 { return float64(gn.Generation()) })
	}
	if cb, ok := probeBackend[interface{ CSRBytes() int64 }](s.backend); ok {
		om.RegisterGauge("rkranks_csr_bytes", func() float64 { return float64(cb.CSRBytes()) })
	} else {
		g := s.cfg.Graph
		om.RegisterGauge("rkranks_csr_bytes", func() float64 { return float64(g.CSRBytes()) })
	}
	if hb, ok := probeBackend[interface{ HubLabelBytes() int64 }](s.backend); ok {
		om.RegisterGauge("rkranks_hub_label_bytes", func() float64 { return float64(hb.HubLabelBytes()) })
	}
	if cb, ok := probeBackend[interface{ CacheBytes() int64 }](s.backend); ok {
		om.RegisterGauge("rkranks_cache_bytes", func() float64 { return float64(cb.CacheBytes()) })
	}
	if ce, ok := probeBackend[interface{ CacheEntries() int64 }](s.backend); ok {
		om.RegisterGauge("rkranks_cache_entries", func() float64 { return float64(ce.CacheEntries()) })
	}
	if repl, ok := s.replicatedIndex(); ok {
		om.RegisterGauge("rkranks_index_seq", func() float64 { return float64(repl.Seq()) })
		om.RegisterGauge("rkranks_index_generation", func() float64 { return float64(repl.Generation()) })
	}
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Recorder exposes the slow-query flight recorder (tests and embedding
// binaries; HTTP consumers use GET /debug/requestz).
func (s *Server) Recorder() *obs.Recorder { return s.recorder }

// Metrics exposes the observability catalog the server records into.
func (s *Server) Metrics() *obs.Metrics { return s.om }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// Drain stops admitting queries (they get 503, /healthz turns 503 so load
// balancers stop routing here) and waits until every admitted request has
// been answered. It returns ctx's error if the drain deadline passes
// first; in-flight requests still run to completion in the background
// either way. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted with requests in flight: %w", ctx.Err())
	}
}

// --- wire types ---------------------------------------------------------
//
// The request/response documents and the error envelope are defined once
// in internal/api; handlers use local aliases so the protocol cannot
// drift from what the typed client and the cluster's remote shards speak.

type (
	queryRequest  = api.QueryRequest
	batchRequest  = api.BatchRequest
	queryResponse = api.QueryResponse
	batchResponse = api.BatchResponse
)

// Error codes of the wire protocol (see api for the full list).
const (
	codeInvalidArgument  = api.CodeInvalidArgument
	codeOverloaded       = api.CodeOverloaded
	codeDraining         = api.CodeDraining
	codeDeadlineExceeded = api.CodeDeadlineExceeded
	codeCanceled         = api.CodeCanceled
	codeInternal         = api.CodeInternal
	codeUnimplemented    = api.CodeUnimplemented
)

// --- admission ----------------------------------------------------------

// admit applies the two-stage admission policy. On success it returns a
// release func; otherwise an HTTP status plus error code to shed with.
// The queue stage respects the request context, so a client that gives up
// while queued frees its slot immediately.
func (s *Server) admit(ctx context.Context) (release func(), status int, code string) {
	if s.Draining() {
		return nil, http.StatusServiceUnavailable, codeDraining
	}
	select {
	case s.inflightSem <- struct{}{}:
	default:
		// All active slots busy: try to wait, bounded by the queue.
		select {
		case s.queueSem <- struct{}{}:
		default:
			return nil, http.StatusTooManyRequests, codeOverloaded
		}
		select {
		case s.inflightSem <- struct{}{}:
			<-s.queueSem
		case <-ctx.Done():
			<-s.queueSem
			return nil, statusForContext(ctx.Err()), codeForContext(ctx.Err())
		}
	}
	// Re-check under the drain lock: a drain that raced the acquire must
	// win, and the {check, Add} pair must be atomic against the flag flip
	// (see drainMu) so Drain never returns with this request uncounted.
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		<-s.inflightSem
		return nil, http.StatusServiceUnavailable, codeDraining
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.inflightSem
			s.inflight.Done()
		})
	}, 0, ""
}

func statusForContext(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return 499 // client closed request (nginx convention)
}

func codeForContext(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return codeDeadlineExceeded
	}
	return codeCanceled
}

// --- handlers -----------------------------------------------------------

// maxRequestIDLen bounds the inbound X-Request-Id a server adopts; longer
// values are replaced so a hostile client cannot bloat logs and traces.
const maxRequestIDLen = 128

// begin stamps a request with its ID and trace. An inbound X-Request-Id
// is adopted — that is how a cluster coordinator's trace stitches across
// its shard servers (the api.Client forwards the ID) — otherwise one is
// generated. The ID goes out on the response header before any body, and
// the trace rides the request context into the backend.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, route string) (*http.Request, *obs.Trace) {
	rid := r.Header.Get("X-Request-Id")
	if rid == "" || len(rid) > maxRequestIDLen {
		rid = obs.NewRequestID()
	}
	tr := obs.NewTrace(rid, route)
	w.Header().Set("X-Request-Id", rid)
	return r.WithContext(obs.ContextWithTrace(r.Context(), tr)), tr
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	r, tr := s.begin(w, r, routeQuery)
	defer tr.Release()
	var req queryRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument, err.Error())
		return
	}
	algo, err := s.resolveAlgorithm(req.Algorithm)
	if err == nil {
		err = checkMergedK(req.MergedK, req.K)
	}
	if err != nil {
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument, err.Error())
		return
	}
	asp := tr.Begin(obs.StageAdmission)
	release, status, code := s.admit(r.Context())
	tr.End(asp)
	if release == nil {
		s.shed(w, r, start, status, code)
		return
	}
	defer release()

	ctx, cancel := s.requestContext(withMergedK(r.Context(), req.MergedK), req.TimeoutMS)
	defer cancel()
	res, err := s.backend.QueryContext(ctx, algo, req.Q, req.K)
	if err != nil {
		s.queryError(w, r, start, err, slog.String("algorithm", algo.String()))
		return
	}
	resp := toQueryResponse(res, algo, time.Since(start))
	resp.RequestID = tr.ID()
	s.respond(w, r, start, http.StatusOK, resp, &res.Stats, 1,
		slog.String("algorithm", algo.String()), slog.Bool("partial", res.Partial))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	r, tr := s.begin(w, r, routeBatch)
	defer tr.Release()
	var req batchRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument, err.Error())
		return
	}
	algo, err := s.resolveAlgorithm(req.Algorithm)
	if err == nil {
		err = checkMergedK(req.MergedK, req.K)
	}
	if err != nil {
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument, err.Error())
		return
	}
	if len(req.Queries) == 0 {
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument, "batch has no queries")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	// A batch occupies ONE admission slot; its internal fan-out is bounded
	// by the pool size (QueryMany workers), not by admission.
	asp := tr.Begin(obs.StageAdmission)
	release, status, code := s.admit(r.Context())
	tr.End(asp)
	if release == nil {
		s.shed(w, r, start, status, code)
		return
	}
	defer release()

	ctx, cancel := s.requestContext(withMergedK(r.Context(), req.MergedK), req.TimeoutMS)
	defer cancel()
	results, err := s.backend.QueryManyContext(ctx, algo, req.Queries, req.K)
	if err != nil {
		s.queryError(w, r, start, err, slog.String("algorithm", algo.String()))
		return
	}
	elapsed := time.Since(start)
	resp := batchResponse{
		Algorithm: api.AlgorithmOf(algo),
		K:         req.K,
		Results:   make([]queryResponse, len(results)),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		RequestID: tr.ID(),
	}
	var agg core.Stats
	partial := false
	for i, res := range results {
		resp.Results[i] = toQueryResponse(res, algo, 0)
		agg.Add(res.Stats)
		partial = partial || res.Partial
	}
	s.respond(w, r, start, http.StatusOK, resp, &agg, len(results),
		slog.String("algorithm", algo.String()), slog.Bool("partial", partial))
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	r, tr := s.begin(w, r, routeMutate)
	defer tr.Release()
	var req api.MutateRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument, err.Error())
		return
	}
	mut, ok := probeBackend[Mutator](s.backend)
	if !ok {
		s.reject(w, r, start, http.StatusNotImplemented, codeUnimplemented,
			"backend serves an immutable graph (run with live mutations enabled)")
		return
	}
	ms, err := api.DecodeMutations(req.Mutations)
	if err != nil {
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument, err.Error())
		return
	}
	if len(ms) == 0 {
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument, "mutation batch is empty")
		return
	}
	if len(ms) > s.cfg.MaxBatch {
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument,
			fmt.Sprintf("batch of %d mutations exceeds limit %d", len(ms), s.cfg.MaxBatch))
		return
	}
	// A live backend grows the graph and every engine's per-node arrays by
	// each added vertex, so a few bytes of count must not ask for more.
	// Each op's share is capped so that the sum cannot overflow.
	added := 0
	for _, m := range ms {
		if m.Op == graph.MutAddVertex {
			added += min(max(m.Count, 1), s.cfg.MaxBatch+1)
		}
	}
	if added > s.cfg.MaxBatch {
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument,
			fmt.Sprintf("batch adds %d or more vertices, limit %d", added, s.cfg.MaxBatch))
		return
	}
	// Mutations ride the same admission policy as queries: one batch, one
	// slot. Drain refuses them too, so a terminating server never applies
	// updates its replacement will not have observed.
	asp := tr.Begin(obs.StageAdmission)
	release, status, code := s.admit(r.Context())
	tr.End(asp)
	if release == nil {
		s.shed(w, r, start, status, code)
		return
	}
	defer release()

	ctx, cancel := s.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	info, err := mut.Mutate(ctx, ms)
	if err != nil {
		s.queryError(w, r, start, err)
		return
	}
	resp := api.MutateResponse{
		Applied:    info.Applied,
		Generation: info.Generation,
		Rebuilt:    info.Rebuilt,
		Nodes:      info.Nodes,
		Edges:      info.Edges,
		ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		RequestID:  tr.ID(),
	}
	writeJSON(w, http.StatusOK, resp)
	// Mutations carry no engine stats; their latency lands in the mutate
	// route's own histogram, never the query route's (a rebuild would
	// read as a latency cliff that never happened to any query).
	s.observe(r, start, http.StatusOK, nil, 0, slog.Bool("rebuilt", info.Rebuilt))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.Draining() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	// A live backend's graph evolves past Config.Graph (vertex adds,
	// topology rebuilds): report the current snapshot when one is exposed.
	g := s.cfg.Graph
	if gb, ok := probeBackend[interface{ Graph() *graph.Graph }](s.backend); ok {
		g = gb.Graph()
	}
	_, mutable := probeBackend[Mutator](s.backend)
	doc := map[string]any{
		"status":      state,
		"uptime_sec":  time.Since(s.started).Seconds(),
		"graph_nodes": g.N(),
		"graph_edges": g.M(),
		"pool_size":   s.backend.Size(),
		"indexed":     s.backend.Indexed(),
		"algorithm":   s.defaultAlgo.String(),
		"mutable":     mutable,
	}
	if sc, ok := probeBackend[interface{ ShardCount() int }](s.backend); ok {
		doc["shards"] = sc.ShardCount()
	}
	if hl, ok := probeBackend[interface{ HubLabeled() bool }](s.backend); ok {
		doc["hub_labeled"] = hl.HubLabeled()
	}
	// A draining server reports its generation too: a coordinator's mutate
	// retry guard reads it to tell an applied batch from a lost one.
	if gn, ok := probeBackend[interface{ Generation() uint64 }](s.backend); ok {
		doc["generation"] = gn.Generation()
	}
	for k, v := range s.cfg.HealthExtra {
		if _, reserved := doc[k]; !reserved {
			doc[k] = v
		}
	}
	writeJSON(w, status, doc)
}

// probeBackend asserts a capability against a backend, walking Unwrap
// decorator chains (a response cache around a cluster coordinator still
// answers the cluster probes). The outermost implementation wins.
func probeBackend[T any](b any) (T, bool) {
	for b != nil {
		if t, ok := b.(T); ok {
			return t, true
		}
		u, ok := b.(interface{ Unwrap() any })
		if !ok {
			break
		}
		b = u.Unwrap()
	}
	var zero T
	return zero, false
}

// --- helpers ------------------------------------------------------------

// maxBodyBytes bounds request bodies; batches of MaxBatch int32 queries
// fit comfortably.
const maxBodyBytes = 1 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func (s *Server) resolveAlgorithm(name api.Algorithm) (core.Algorithm, error) {
	return name.Core(s.defaultAlgo)
}

// requestContext derives the engine-layer context: the client deadline
// (clamped to MaxTimeout, defaulted to DefaultTimeout) on top of the
// request context, so both client disconnect and deadline cancel the
// query.
func (s *Server) requestContext(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(parent, timeout)
}

// checkMergedK rejects a merged k (api.QueryRequest.MergedK) below the
// request's k before the request takes an admission slot; the index-K
// ceiling of indexed queries is the engine's to enforce.
func checkMergedK(mergedK, k int) error {
	if mergedK != 0 && (mergedK < 0 || mergedK < k) {
		return fmt.Errorf("merged_k %d below k %d", mergedK, k)
	}
	return nil
}

// withMergedK attaches a request's merged k, if any, for the backend.
func withMergedK(ctx context.Context, mergedK int) context.Context {
	if mergedK == 0 {
		return ctx
	}
	return core.WithMergedK(ctx, mergedK)
}

func toQueryResponse(res *core.Result, algo core.Algorithm, elapsed time.Duration) queryResponse {
	entries := make([]api.Entry, len(res.Entries))
	for i, e := range res.Entries {
		entries[i] = api.Entry{Node: e.Node, Rank: e.Rank}
	}
	stats := res.Stats
	resp := queryResponse{
		Query:      res.Query,
		K:          res.K,
		Algorithm:  api.AlgorithmOf(algo),
		Entries:    entries,
		Partial:    res.Partial,
		Generation: res.Generation,
		Stats:      &stats,
	}
	if elapsed > 0 {
		resp.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	}
	return resp
}

// queryError maps an engine/pool/cluster error to the wire protocol. A
// backend error carrying its own HTTP mapping (HTTPStatuser — cluster
// shard unavailability and aggregated shard overload) wins over the
// generic classes; its Retry-After hint, if any, is forwarded so a
// coordinator's 429 tells clients when the slowest shard will admit
// again instead of this server's own queue estimate.
func (s *Server) queryError(w http.ResponseWriter, r *http.Request, start time.Time, err error, extra ...slog.Attr) {
	var hs HTTPStatuser
	switch {
	case errors.Is(err, core.ErrInvalidArgument):
		s.reject(w, r, start, http.StatusBadRequest, codeInvalidArgument, err.Error(), extra...)
	case errors.Is(err, context.DeadlineExceeded):
		s.reject(w, r, start, http.StatusGatewayTimeout, codeDeadlineExceeded, err.Error(), extra...)
	case errors.Is(err, context.Canceled):
		s.reject(w, r, start, 499, codeCanceled, err.Error(), extra...)
	case errors.As(err, &hs):
		status, code := hs.HTTPStatus()
		var rh RetryAfterHinter
		if errors.As(err, &rh) {
			if secs := int(rh.RetryAfterHint() / time.Second); secs > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(secs))
			}
		}
		if status == http.StatusTooManyRequests {
			s.metrics.shed()
		}
		s.reject(w, r, start, status, code, err.Error(), extra...)
	default:
		s.reject(w, r, start, http.StatusInternalServerError, codeInternal, err.Error(), extra...)
	}
}

// shed records and answers an admission rejection. 429 carries a
// Retry-After hint scaled to the default timeout: by then the current
// queue has almost certainly cleared.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, start time.Time, status int, code string) {
	if status == http.StatusTooManyRequests {
		retry := int(s.cfg.DefaultTimeout / time.Second)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.metrics.shed()
	}
	s.reject(w, r, start, status, code, http.StatusText(status))
}

func (s *Server) reject(w http.ResponseWriter, r *http.Request, start time.Time, status int, code, msg string, extra ...slog.Attr) {
	tr := obs.FromContext(r.Context())
	body := api.ErrorBody{Code: code, Message: msg, RequestID: tr.ID()}
	// Mirror the Retry-After header (set by shed / queryError before this
	// call) into the envelope, so clients that only read bodies see it.
	if secs, err := strconv.Atoi(w.Header().Get("Retry-After")); err == nil && secs > 0 {
		body.RetryAfterSec = secs
	}
	writeJSON(w, status, body)
	s.observe(r, start, status, nil, 0, extra...)
}

func (s *Server) respond(w http.ResponseWriter, r *http.Request, start time.Time, status int, body any, st *core.Stats, okQueries int, extra ...slog.Attr) {
	writeJSON(w, status, body)
	s.observe(r, start, status, st, okQueries, extra...)
}

// observe closes out one request: metrics (route counters, latency and
// stage histograms, engine counter mirror), the flight recorder (which
// copies the trace, so the handler's deferred Release is safe), and the
// access log with the trace-derived attrs — request_id always, the cache
// decision when that stage ran.
func (s *Server) observe(r *http.Request, start time.Time, status int, st *core.Stats, okQueries int, extra ...slog.Attr) {
	elapsed := time.Since(start)
	tr := obs.FromContext(r.Context())
	route := routeOther
	if tr != nil {
		route = tr.Route()
	}
	s.metrics.observe(route, status, elapsed, st, okQueries, tr)
	if tr != nil && s.recorder.Observe(tr, status, elapsed) {
		s.om.SlowQueries.Inc()
	}
	if s.cfg.AccessLog != nil {
		attrs := make([]slog.Attr, 0, 12+len(extra))
		attrs = append(attrs,
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Float64("elapsed_ms", float64(elapsed.Microseconds())/1000),
			slog.String("remote", r.RemoteAddr),
		)
		if tr != nil {
			attrs = append(attrs, slog.String("request_id", tr.ID()))
			// Single-query lookups mark the decision with one flag attr;
			// batch lookups carry counts.
			if _, ok := tr.Attr(obs.StageCacheLookup, "hit"); ok {
				attrs = append(attrs, slog.String("cache", "hit"))
			} else if _, ok := tr.Attr(obs.StageCacheLookup, "coalesced"); ok {
				attrs = append(attrs, slog.String("cache", "coalesced"))
			} else if _, ok := tr.Attr(obs.StageCacheLookup, "miss"); ok {
				attrs = append(attrs, slog.String("cache", "miss"))
			} else if hits, ok := tr.Attr(obs.StageCacheLookup, "hits"); ok {
				misses, _ := tr.Attr(obs.StageCacheLookup, "misses")
				coalesced, _ := tr.Attr(obs.StageCacheLookup, "coalesced")
				attrs = append(attrs,
					slog.Int64("cache_hits", hits),
					slog.Int64("cache_misses", misses),
					slog.Int64("cache_coalesced", coalesced))
			}
		}
		attrs = append(attrs, extra...)
		s.cfg.AccessLog.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}
