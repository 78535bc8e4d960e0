package obs

// Metrics is the canonical instrument catalog: every counter and
// histogram the serving stack emits is defined here, once, with its
// Prometheus name and help text. Components receive a *Metrics and use
// the handles; they never construct instruments themselves (CI lints
// for registration outside this package).
//
// Naming conventions (see CONTRIBUTING):
//   - everything is prefixed rkranks_
//   - counters end in _total, durations in _seconds
//   - label cardinality is closed and tiny (route class, stage, status
//     class, shard index) — never a query, node ID, or request ID
type Metrics struct {
	reg *Registry

	// HTTP surface.
	Requests       *CounterVec // route
	Responses      *CounterVec // route, class
	Shed           *Counter
	RequestSeconds *HistogramVec // route
	QueriesOK      *Counter

	// Per-stage trace latency, indexable by Stage with no allocation.
	StageSeconds [NumStages]*Histogram

	// Response cache.
	CacheHits      *Counter
	CacheMisses    *Counter
	CacheCoalesced *Counter
	CacheInserts   *Counter
	CacheEvictions *Counter

	// Scatter-gather cluster.
	ClusterQueries       *Counter
	ClusterPartials      *Counter
	ClusterTransferred   *Counter
	ClusterShardFailures *Counter
	ClusterShardCalls    *CounterVec // shard
	ClusterBatches       *Counter
	ClusterBatchRPCs     *Counter
	ClusterBatchQueries  *Counter
	SkewRetries          *Counter

	// Live mutation pipeline.
	MutationBatches      *Counter
	MutationOps          *Counter
	MutationPatches      *Counter
	MutationRebuilds     *Counter
	MutationRelabels     *Counter
	MutationApplySeconds *Histogram

	// Engine decision counters (aggregated from per-query core.Stats).
	EngineRefinements      *Counter
	EnginePruned           *Counter
	EngineIndexHits        *Counter
	EngineSharedTraversals *Counter
	LabelPruned            *Counter
	LabelFallbacks         *Counter

	// Replica groups and index replication.
	ReplicaFailovers     *Counter
	ReplicaCatchups      *Counter
	IndexSnapshotsServed *Counter
	IndexDeltasServed    *Counter
	IndexSnapshotsLoaded *Counter
	IndexDeltasApplied   *Counter

	// Flight recorder.
	SlowQueries *Counter
}

// NewMetrics builds the full catalog against r. A nil registry yields
// working, unregistered instruments — the default for components wired
// without a metrics endpoint (most tests).
func NewMetrics(r *Registry) *Metrics {
	m := &Metrics{reg: r}

	m.Requests = r.NewCounterVec("rkranks_requests_total",
		"HTTP requests received, by route class.", "route")
	m.Responses = r.NewCounterVec("rkranks_responses_total",
		"HTTP responses sent, by route class and status class.", "route", "class")
	m.Shed = r.NewCounter("rkranks_requests_shed_total",
		"Requests rejected by admission control (503/429).")
	m.RequestSeconds = r.NewHistogramVec("rkranks_request_duration_seconds",
		"End-to-end request latency, by route class.", nil, "route")
	m.QueriesOK = r.NewCounter("rkranks_queries_ok_total",
		"Individual queries answered successfully (batch queries counted singly).")

	stageSeconds := r.NewHistogramVec("rkranks_stage_duration_seconds",
		"Per-stage latency decomposed from request traces.", nil, "stage")
	for s := 0; s < NumStages; s++ {
		m.StageSeconds[s] = stageSeconds.With(Stage(s).String())
	}

	m.CacheHits = r.NewCounter("rkranks_cache_hits_total",
		"Response cache hits.")
	m.CacheMisses = r.NewCounter("rkranks_cache_misses_total",
		"Response cache misses (includes coalesced joins).")
	m.CacheCoalesced = r.NewCounter("rkranks_cache_coalesced_total",
		"Misses that joined an in-flight identical query instead of computing.")
	m.CacheInserts = r.NewCounter("rkranks_cache_inserts_total",
		"Entries inserted into the response cache.")
	m.CacheEvictions = r.NewCounter("rkranks_cache_evictions_total",
		"Entries evicted from the response cache (LRU or generation turnover).")

	m.ClusterQueries = r.NewCounter("rkranks_cluster_queries_total",
		"Scatter-gather queries coordinated.")
	m.ClusterPartials = r.NewCounter("rkranks_cluster_partials_total",
		"Coordinated queries answered Partial (at least one shard missing).")
	m.ClusterTransferred = r.NewCounter("rkranks_cluster_entries_transferred_total",
		"Result entries moved coordinator-ward across all rounds.")
	m.ClusterShardFailures = r.NewCounter("rkranks_cluster_shard_failures_total",
		"Shard RPC failures observed by the coordinator.")
	m.ClusterShardCalls = r.NewCounterVec("rkranks_cluster_shard_calls_total",
		"Shard calls issued by the coordinator (one per query or batch per shard), by shard index.", "shard")
	m.ClusterBatches = r.NewCounter("rkranks_cluster_batches_total",
		"Batch scatters coordinated.")
	m.ClusterBatchRPCs = r.NewCounter("rkranks_cluster_batch_rpcs_total",
		"Shard RPCs issued by batch scatters.")
	m.ClusterBatchQueries = r.NewCounter("rkranks_cluster_batch_queries_total",
		"Queries carried by batch scatters.")
	m.SkewRetries = r.NewCounter("rkranks_generation_skew_retries_total",
		"Scatter retries because shard answers spanned two graph generations.")

	m.MutationBatches = r.NewCounter("rkranks_mutation_batches_total",
		"Mutation batches applied to the live store.")
	m.MutationOps = r.NewCounter("rkranks_mutation_ops_total",
		"Individual mutation operations applied.")
	m.MutationPatches = r.NewCounter("rkranks_mutation_patches_total",
		"Mutation batches applied as in-place CSR patches.")
	m.MutationRebuilds = r.NewCounter("rkranks_mutation_rebuilds_total",
		"Mutation batches that forced a full graph rebuild.")
	m.MutationRelabels = r.NewCounter("rkranks_mutation_relabels_total",
		"Background hub-label rebuilds completed after mutations.")
	m.MutationApplySeconds = r.NewHistogram("rkranks_mutation_apply_seconds",
		"Latency of applying one mutation batch (barrier wait included).", nil)

	m.EngineRefinements = r.NewCounter("rkranks_engine_refinements_total",
		"Candidate refinements performed (exact rank computations).")
	m.EnginePruned = r.NewCounter("rkranks_engine_pruned_total",
		"Candidates pruned by bound before refinement.")
	m.EngineIndexHits = r.NewCounter("rkranks_engine_index_hits_total",
		"Refinements answered from the dynamic index.")
	m.EngineSharedTraversals = r.NewCounter("rkranks_engine_shared_traversals_total",
		"Batch queries answered from a shared traversal.")
	m.LabelPruned = r.NewCounter("rkranks_label_pruned_total",
		"Candidates settled purely from hub-label bounds.")
	m.LabelFallbacks = r.NewCounter("rkranks_label_fallbacks_total",
		"Hub-label candidates that needed Dijkstra fallback refinement.")

	m.ReplicaFailovers = r.NewCounter("rkranks_replica_failovers_total",
		"Queries retried on a sibling replica after a replica failed.")
	m.ReplicaCatchups = r.NewCounter("rkranks_replica_catchups_total",
		"Replicas readmitted to rotation after catching up missed mutation batches.")
	m.IndexSnapshotsServed = r.NewCounter("rkranks_index_snapshots_served_total",
		"Index snapshots served over /v1/index/snapshot.")
	m.IndexDeltasServed = r.NewCounter("rkranks_index_deltas_served_total",
		"Index deltas served over /v1/index/deltas (individual updates).")
	m.IndexSnapshotsLoaded = r.NewCounter("rkranks_index_snapshots_loaded_total",
		"Index snapshots fetched from a leader and absorbed by this replica.")
	m.IndexDeltasApplied = r.NewCounter("rkranks_index_deltas_applied_total",
		"Index deltas fetched from a leader and applied by this replica.")

	m.SlowQueries = r.NewCounter("rkranks_slow_queries_total",
		"Requests captured by the flight recorder as over-threshold.")

	return m
}

// Registry returns the registry the catalog is bound to (nil when
// standalone).
func (m *Metrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// gaugeDefs is the closed set of gauge names components may register a
// source for. Keeping names here (with their help text) keeps the
// catalog canonical even though the sampled state lives elsewhere.
var gaugeDefs = map[string]string{
	"rkranks_in_flight_requests": "Requests currently holding an in-flight slot.",
	"rkranks_queued_requests":    "Requests waiting in the admission queue.",
	"rkranks_draining":           "1 while the server is draining for shutdown.",
	"rkranks_pool_size":          "Engines in the query pool.",
	"rkranks_generation":         "Current graph generation.",
	"rkranks_cache_bytes":        "Bytes held by the response cache.",
	"rkranks_cache_entries":      "Entries held by the response cache.",
	"rkranks_csr_bytes":          "Bytes held by the CSR graph layout.",
	"rkranks_hub_label_bytes":    "Bytes held by the hub labeling.",
	"rkranks_index_seq":          "Position of the replicated index's own delta log (a follower's, not its cursor into the leader's).",
	"rkranks_index_generation":   "Generation of the replicated index (bumped when its answers are invalidated).",
}

// RegisterGauge wires a sampling source for one of the known gauges.
// Unknown names panic: gauge names are part of the catalog and must be
// added to gaugeDefs (and the docs) first.
func (m *Metrics) RegisterGauge(name string, fn func() float64) {
	help, ok := gaugeDefs[name]
	if !ok {
		panic("obs: unknown gauge " + name + " — add it to gaugeDefs")
	}
	if m == nil || m.reg == nil {
		return
	}
	m.reg.NewGauge(name, help, fn)
}
