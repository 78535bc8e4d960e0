// Package cluster serves reverse k-ranks queries across multiple shard
// backends: the cross-process scaling layer the ROADMAP points at, built
// behind the exact query semantics of internal/core and the wire contract
// of internal/server.
//
// # Why vertex shards work
//
// Rank(p, q) is a global shortest-path property — it cannot be computed
// from a subgraph — so the graph itself is not partitioned. What IS
// partitioned is the candidate class: shard i returns only its own
// vertices (an Options.Candidates mask), out of the cluster's class
// (Options.ClusterCandidates). Every shard still holds the whole graph,
// like the partitioned hub labelings of ReHub partition label work
// rather than topology.
//
// # Shard backends
//
// A shard backend (ShardBackend) has the method set of server.Backend.
// A masked *core.Pool or *live.Store serves a shard in process (NewLocal,
// NewLocalLive), a RemoteShard serves one over HTTP, and a ReplicaGroup
// puts several of any of these behind one shard. Each of them, the
// coordinator included, can also stand behind server.New or
// cache.NewBackend as it is.
//
// # What each shard does
//
// Every shard call carries the client's k as the merged k
// (core.WithMergedK; merged_k on the wire). With it a shard walks the
// SDS-tree the way one node would: a candidate of another shard is a
// foreign candidate that the shard bounds like its own, and refines when
// no bound settles it, so that its rank cuts the subtree below it (the
// paper's Lemma 1). Every exact rank the shard learns also enters a
// shadow heap of the merged k best, whose k-th rank joins the pruning
// threshold. Each shard therefore does about one node's work for every
// query rather than a share of it: sharding buys no per-query speed-up,
// and the merged k keeps it from costing the many-fold slowdown of
// shards that never bound each other's candidates. A shard still returns
// only its own candidates, minus any that provably cannot reach the
// merged top k.
//
// # One scatter round at the client's k
//
// The coordinator sends each query once to every available shard, at
// the client's k and with k as the merged k. A shard's answer then holds
// every one of its own candidates that is in the merged top k: such a
// candidate is in the shard's own top k, and it can reach the merged top
// k, so the shard neither cuts nor withholds it. The union of the
// answers therefore contains the merged top k with exact ranks, and
// sorting it by (rank, node id) and keeping k entries (mergeTopK) is
// exact, boundary ties included.
//
// The merged result is byte-identical to a single-node Pool.Query over
// the unsharded candidate class, for every algorithm, while each shard
// withholds what it can tell cannot reach the merged top k.
// Config.NaiveGather, the baseline, sends the same round with no merged
// k, so each shard returns its canonical top k.
//
// # Degradation
//
// Per-shard health tracking trips a backend after consecutive failures
// and retries it after a backoff. Under Config.StrictConsistency a query
// touching an unavailable shard fails with ErrShardUnavailable (HTTP
// 503); in the default degraded mode the coordinator answers from the
// healthy shards and marks the result Partial. Shard 429s are aggregated
// into an OverloadedError carrying the MAXIMUM shard Retry-After.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/live"
	"rkranks/internal/obs"
	"rkranks/internal/ridx"
)

// Config tunes a Coordinator. The zero value is production-sane.
type Config struct {
	// StrictConsistency refuses queries (ErrShardUnavailable, HTTP 503)
	// whenever any shard is unavailable, instead of answering partially.
	StrictConsistency bool

	// NaiveGather sends shard calls without a merged k, so every shard
	// returns its canonical top k: the baseline the serving_cluster
	// experiment compares the merged-k scatter against.
	NaiveGather bool

	// PerQueryScatter disables batch scatter: QueryManyContext scatters
	// every query of a batch independently (one RPC per shard PER QUERY,
	// the pre-batch baseline the serving_batch experiment compares
	// against) instead of one RPC per shard per batch.
	PerQueryScatter bool

	// FailureThreshold is how many consecutive failures trip a shard
	// (<= 0 defaults to 3).
	FailureThreshold int

	// RetryBackoff is how long a tripped shard is skipped before the
	// next query probes it again (<= 0 defaults to 5s).
	RetryBackoff time.Duration

	// Metrics is the instrument catalog the coordinator and its replica
	// groups count into, which /metrics renders. Nil uses standalone
	// (unregistered) instruments.
	Metrics *obs.Metrics
}

func (c *Config) failureThreshold() int {
	if c.FailureThreshold <= 0 {
		return 3
	}
	return c.FailureThreshold
}

func (c *Config) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return 5 * time.Second
	}
	return c.RetryBackoff
}

// shardHealth is one backend's failure tracking: consecutive failures
// trip it for a backoff window; after the window, exactly ONE query at a
// time is admitted as the half-open probe (claimProbe) while everyone
// else keeps skipping the shard — a tripped backend under heavy traffic
// must not absorb the whole query population's connect latency the
// instant its backoff expires.
type shardHealth struct {
	mu        sync.Mutex
	fails     int
	downUntil time.Time
	probing   bool
}

// claimProbe reports whether a query may use the shard, claiming the
// half-open probe slot when the shard is tripped but due for one.
func (h *shardHealth) claimProbe(now time.Time, threshold int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fails < threshold {
		return true
	}
	if now.After(h.downUntil) && !h.probing {
		h.probing = true
		return true
	}
	return false
}

// healthy is the read-only view: it never claims the probe.
func (h *shardHealth) healthy(threshold int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fails < threshold
}

// releaseProbe returns an unused probe claim (a query refused before
// scattering). Harmless on shards that were simply healthy.
func (h *shardHealth) releaseProbe() {
	h.mu.Lock()
	h.probing = false
	h.mu.Unlock()
}

func (h *shardHealth) record(ok bool, threshold int, backoff time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.probing = false
	if ok {
		h.fails = 0
		return
	}
	h.fails++
	if h.fails >= threshold {
		h.downUntil = time.Now().Add(backoff)
	}
}

// Coordinator scatters reverse k-ranks queries across shard backends and
// merges the answers. It implements the server.Backend interface, so
// internal/server serves a cluster through the unchanged /v1/query
// contract. Safe for concurrent use.
type Coordinator struct {
	backends []ShardBackend
	cfg      Config
	health   []shardHealth
	om       *obs.Metrics
	// shardCalls counts the calls to each shard, resolved once from
	// rkranks_cluster_shard_calls_total so every shard's series shows
	// from the first scrape.
	shardCalls []*obs.Counter

	// mutateMu serializes cluster-wide mutation batches so shard
	// generations advance in lockstep: batch n lands everywhere before
	// batch n+1 starts anywhere.
	mutateMu sync.Mutex
}

// New builds a coordinator over the given shard backends. The backends
// must partition one graph's candidate class between them (NewLocal,
// NewLocalLive and rkserve -shard all derive masks from the same
// deterministic partitioners, so agreeing on (partitioner, P) is enough).
func New(backends []ShardBackend, cfg Config) (*Coordinator, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: at least one shard backend is required")
	}
	om := cfg.Metrics
	if om == nil {
		om = obs.NewMetrics(nil)
	}
	c := &Coordinator{
		backends:   backends,
		cfg:        cfg,
		health:     make([]shardHealth, len(backends)),
		om:         om,
		shardCalls: make([]*obs.Counter, len(backends)),
	}
	for i := range c.shardCalls {
		c.shardCalls[i] = om.ClusterShardCalls.With(strconv.Itoa(i))
	}
	return c, nil
}

// NewLocal builds an in-process cluster: shards groups of replicas
// masked engine pools each over g, all sharing ix when non-nil (exactly
// like a single NewPoolWithIndex pool, just partitioned). replicas <= 1
// puts one pool per shard in front of the coordinator, without a replica
// group. poolSize sizes each pool (<= 0 derives the core default).
func NewLocal(g *graph.Graph, opts core.Options, part Partitioner, shards, replicas, poolSize int, ix ridx.Index, cfg Config) (*Coordinator, error) {
	if part == nil {
		part = Modulo{}
	}
	return newLocal(shards, replicas, cfg, func(shard int) (ShardBackend, error) {
		return localPool(g, opts, part, shards, shard, poolSize, ix)
	})
}

// NewLocalLive builds an in-process MUTABLE cluster: shards groups of
// replicas live stores each over g. Every store owns a private graph
// copy, its masked candidate class, its pool, and (when indexMaxK > 0)
// its own empty index that learns from its traffic. base carries the
// shared live configuration; its Index and CandidateFunc fields are
// overwritten per store (live stores cannot share one index — each swaps
// in a fresh one on topology rebuilds). replicas <= 1 means no replica
// groups. The coordinator's Mutate fans batches to every shard, and each
// group to every replica, in lockstep.
func NewLocalLive(g *graph.Graph, base live.Config, indexMaxK int, part Partitioner, shards, replicas int, cfg Config) (*Coordinator, error) {
	if part == nil {
		part = Modulo{}
	}
	return newLocal(shards, replicas, cfg, func(shard int) (ShardBackend, error) {
		memberCfg := base
		if indexMaxK > 0 {
			memberCfg.Index = ridx.NewSharded(g.N(), indexMaxK)
		}
		return liveStore(g, memberCfg, part, shards, shard)
	})
}

// newLocal builds replicas members per shard with member and puts each
// shard's members behind a ReplicaGroup, or, with replicas <= 1, its one
// member straight behind the coordinator.
func newLocal(shards, replicas int, cfg Config, member func(shard int) (ShardBackend, error)) (*Coordinator, error) {
	backends := make([]ShardBackend, shards)
	for i := range backends {
		members := make([]ShardBackend, max(replicas, 1))
		for r := range members {
			b, err := member(i)
			if err != nil {
				return nil, err
			}
			members[r] = b
		}
		if len(members) == 1 {
			backends[i] = members[0]
			continue
		}
		rg, err := NewReplicaGroup(members, cfg)
		if err != nil {
			return nil, err
		}
		backends[i] = rg
	}
	return New(backends, cfg)
}

// ShardCount returns the number of shard backends.
func (c *Coordinator) ShardCount() int { return len(c.backends) }

// Size implements server.Backend: the cluster's concurrent-query capacity
// is its bottleneck shard's, since every query occupies one engine slot
// on every shard.
func (c *Coordinator) Size() int {
	size := c.backends[0].Size()
	for _, b := range c.backends[1:] {
		if s := b.Size(); s < size {
			size = s
		}
	}
	if size < 1 {
		size = 1
	}
	return size
}

// Indexed implements server.Backend: Indexed queries are serveable only
// when every shard has an index.
func (c *Coordinator) Indexed() bool {
	for _, b := range c.backends {
		if !b.Indexed() {
			return false
		}
	}
	return true
}

// HubLabeled implements the serving-layer capability probe: HubLabel
// queries are serveable only when every shard holds a hub labeling.
func (c *Coordinator) HubLabeled() bool {
	for _, b := range c.backends {
		hl, ok := b.(interface{ HubLabeled() bool })
		if !ok || !hl.HubLabeled() {
			return false
		}
	}
	return true
}

// HubLabelBytes implements the footprint probe behind
// rkranks_hub_label_bytes: the sum of the shard labelings' footprints
// (remote shards, which do not expose one, contribute 0 — their bytes
// are on their own /metrics).
func (c *Coordinator) HubLabelBytes() int64 {
	var total int64
	for _, b := range c.backends {
		if hb, ok := b.(interface{ HubLabelBytes() int64 }); ok {
			total += hb.HubLabelBytes()
		}
	}
	return total
}

// Generation implements the response-cache answer-set-generation probe:
// the maximum of the shard backends' generations (remote shards, which
// do not expose one, contribute 0). Mutation fan-outs keep live shards
// in lockstep, so in the healthy state this IS the cluster's common
// generation — the one Mutate reports and merged results are stamped
// with. It is also sound as a cache key: a complete (cacheable) merge
// only exists when every generation-bearing shard agrees on a value G,
// and the maximum equals exactly that G — skewed states can never
// produce a complete result under a colliding key. A ReplicaGroup
// backend reports its SERVING replica's generation here (never a
// catching-up replica's), which keeps the same argument sound under
// replication; see ReplicaGroup.Generation.
func (c *Coordinator) Generation() uint64 {
	var gen uint64
	for _, b := range c.backends {
		if gp, ok := b.(interface{ Generation() uint64 }); ok {
			if g := gp.Generation(); g > gen {
				gen = g
			}
		}
	}
	return gen
}

// Snapshot is the coordinator's counters, read back from the same obs
// instruments /metrics renders, plus each shard's health. The
// end-to-end benchmark (bench/e2e) and the experiments read it in
// process.
type Snapshot struct {
	Queries int64
	// EntriesTransferred counts result entries moved from shards to the
	// coordinator. The merged k keeps it below shards x k x queries
	// (what a naive full-k gather moves).
	EntriesTransferred int64
	// Escalations and ShortCircuited always read 0: they counted the
	// second scatter round and the shards that skipped it, and every
	// query now takes one round. They stay while bench/e2e reads them.
	Escalations    int64
	ShortCircuited int64
	// Batches counts batch scatters; BatchRPCs the shard calls they
	// spent (one per available shard per batch); BatchQueries the
	// queries they carried.
	Batches      int64
	BatchRPCs    int64
	BatchQueries int64

	Shards []ShardSnapshot
}

// ShardSnapshot is one shard's health and call count.
type ShardSnapshot struct {
	ID        int
	Available bool
	Queries   int64 // calls, as rkranks_cluster_shard_calls_total{shard}
}

// ClusterSnapshot returns a *Snapshot of the coordinator. The result is
// typed any because bench/e2e asserts it to *cluster.Snapshot.
func (c *Coordinator) ClusterSnapshot() any {
	snap := &Snapshot{
		Queries:            c.om.ClusterQueries.Value(),
		EntriesTransferred: c.om.ClusterTransferred.Value(),
		Batches:            c.om.ClusterBatches.Value(),
		BatchRPCs:          c.om.ClusterBatchRPCs.Value(),
		BatchQueries:       c.om.ClusterBatchQueries.Value(),
		Shards:             make([]ShardSnapshot, len(c.backends)),
	}
	for i := range c.backends {
		snap.Shards[i] = ShardSnapshot{
			ID:        i,
			Available: c.health[i].healthy(c.cfg.failureThreshold()),
			Queries:   c.shardCalls[i].Value(),
		}
	}
	return snap
}

// Close returns nil: a coordinator holds no resources. It stays because
// bench/e2e and callers of rkranks.Cluster call it.
func (c *Coordinator) Close() error { return nil }

// Query is QueryContext with a background context.
func (c *Coordinator) Query(a core.Algorithm, q int32, k int) (*core.Result, error) {
	return c.QueryContext(context.Background(), a, q, k)
}

// shardOut is one shard RPC's outcome.
type shardOut struct {
	shard int
	res   *core.Result
	err   error
}

// gatherState accumulates a query's shard answers.
type gatherState struct {
	results     []*core.Result // answer per shard, nil = none
	stats       core.Stats     // work summed over the shards
	transferred int
	partial     bool
	overloaded  []int
	retryAfter  time.Duration
	fatal       error
	firstFail   *ShardError
	answered    int
}

// skewRetries is how many times a query whose merge observed mixed graph
// generations is re-scattered before GenerationSkewError surfaces. A
// mutation batch's swap window is microseconds per shard, so one retry
// almost always lands entirely after it; persistent skew means the shards
// genuinely diverged (a partially failed mutation fan-out).
const skewRetries = 2

// QueryContext answers one reverse k-ranks query by scatter-gather: one
// call per available shard at k, carrying k as the merged k, then one
// merge. The request context (deadline, cancellation) is passed through
// to every shard call.
//
// Merges are generation-consistent: when shard answers carry live-store
// generation stamps, a merge across two generations (a mutation batch
// landed mid-scatter) is refused and the whole scatter retried; see
// GenerationSkewError.
func (c *Coordinator) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	if err := core.ValidateRequest(a, k); err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		res, err := c.queryOnce(ctx, a, q, k)
		var gs *GenerationSkewError
		if errors.As(err, &gs) && attempt < skewRetries && ctx.Err() == nil {
			c.om.SkewRetries.Inc()
			continue
		}
		return res, err
	}
}

// queryOnce is one scatter-gather attempt of QueryContext.
func (c *Coordinator) queryOnce(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	P := len(c.backends)

	targets, skipped := c.availableShards()
	if len(skipped) > 0 && c.cfg.StrictConsistency {
		// Release any half-open probe slots this query claimed: the
		// query is refused before it could run them, and a stuck probing
		// flag would lock the shard out of recovery.
		for _, i := range targets {
			c.health[i].releaseProbe()
		}
		return nil, &ShardError{Shard: skipped[0], Err: errors.New("tripped by health tracking")}
	}
	if len(targets) == 0 {
		return nil, &ShardError{Shard: skipped[0], Err: errors.New("no shard available")}
	}

	st := &gatherState{results: make([]*core.Result, P), partial: len(skipped) > 0}
	// sp is the scatter's parent span; the generation attribute lands on
	// it after the merge below (the *Span stays valid — it lives in the
	// trace).
	sp := c.gather(c.shardContext(ctx, k), a, q, k, targets, st)
	if err := c.gatherError(st); err != nil {
		return nil, err
	}

	if st.answered == 0 {
		if st.firstFail != nil {
			return nil, st.firstFail
		}
		return nil, &ShardError{Shard: targets[0], Err: errors.New("no shard answered")}
	}

	gen, skewed := commonGeneration(st.results)
	if skewed {
		return nil, &GenerationSkewError{Query: q, Generations: distinctGenerations(st.results)}
	}
	sp.SetAttr("generation", int64(gen))
	res := &core.Result{
		Query:      q,
		K:          k,
		Entries:    mergeTopK(st.results, k),
		Partial:    st.partial,
		Generation: gen,
		Stats:      st.stats,
	}
	c.om.ClusterQueries.Inc()
	if st.partial {
		c.om.ClusterPartials.Inc()
	}
	c.om.ClusterTransferred.Add(int64(st.transferred))
	return res, nil
}

// commonGeneration extracts the one generation stamp a set of shard
// answers agrees on. Zero stamps mean "backend without live mutations"
// (live stores start at generation 1) and are ignored; two distinct
// nonzero stamps mean a mutation landed between shard answers and the
// merge must be refused.
func commonGeneration(results []*core.Result) (gen uint64, skewed bool) {
	for _, r := range results {
		if r == nil || r.Generation == 0 {
			continue
		}
		if gen == 0 {
			gen = r.Generation
			continue
		}
		if r.Generation != gen {
			return 0, true
		}
	}
	return gen, false
}

// distinctGenerations lists the distinct nonzero stamps, ascending (error
// reporting only).
func distinctGenerations(results []*core.Result) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, r := range results {
		if r != nil && r.Generation != 0 && !seen[r.Generation] {
			seen[r.Generation] = true
			out = append(out, r.Generation)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// availableShards splits the shard ids by health state, claiming the
// half-open probe slot of any tripped shard whose backoff has expired
// (at most one concurrent query probes a tripped shard).
func (c *Coordinator) availableShards() (targets, skipped []int) {
	now := time.Now()
	threshold := c.cfg.failureThreshold()
	for i := range c.backends {
		if c.health[i].claimProbe(now, threshold) {
			targets = append(targets, i)
		} else {
			skipped = append(skipped, i)
		}
	}
	return targets, skipped
}

// shardContext is the context of every shard call of a query for k: it
// carries k as the merged k (core.WithMergedK), so each shard prunes
// with the bounds of the whole cluster and withholds what cannot reach
// the merged top k. NaiveGather's calls carry none: their shards return
// their canonical top k, the baseline the mode measures.
func (c *Coordinator) shardContext(ctx context.Context, k int) context.Context {
	if c.cfg.NaiveGather {
		k = 0
	}
	if core.MergedK(ctx) == k {
		return ctx
	}
	return core.WithMergedK(ctx, k)
}

// gather calls the target shards in parallel and folds the outcomes
// into st. The scatter is one parent span of the request trace with a
// per-shard child span each; the returned parent span (nil when
// untraced) lets the caller attach merge-time attributes after it
// closed.
func (c *Coordinator) gather(ctx context.Context, a core.Algorithm, q int32, k int, targets []int, st *gatherState) *obs.Span {
	tr := obs.FromContext(ctx)
	psp := tr.Begin(obs.StageScatter)
	psp.SetAttr("shards", int64(len(targets)))
	psp.SetAttr("k", int64(k))
	outs := make([]shardOut, len(targets))
	var wg sync.WaitGroup
	for idx, shard := range targets {
		wg.Add(1)
		go func(idx, shard int) {
			defer wg.Done()
			csp := tr.BeginShard(obs.StageScatter, shard)
			res, err := c.backends[shard].QueryContext(ctx, a, q, k)
			if err == nil {
				csp.SetAttr("entries", int64(len(res.Entries)))
			} else {
				csp.SetAttr("error", 1)
			}
			tr.End(csp)
			c.recordShard(shard, err)
			outs[idx] = shardOut{shard: shard, res: res, err: err}
		}(idx, shard)
	}
	wg.Wait()

	for _, o := range outs {
		if o.err == nil {
			st.results[o.shard] = o.res
			st.stats.Add(o.res.Stats)
			st.transferred += len(o.res.Entries)
			st.answered++
			if o.res.Partial {
				st.partial = true
			}
			continue
		}
		if fatalQueryError(o.err) {
			if st.fatal == nil {
				st.fatal = o.err
			}
			continue
		}
		if ra, ok := overloadHint(o.err); ok {
			st.overloaded = append(st.overloaded, o.shard)
			if ra > st.retryAfter {
				st.retryAfter = ra
			}
			continue
		}
		st.partial = true
		if st.firstFail == nil {
			st.firstFail = &ShardError{Shard: o.shard, Err: o.err}
		}
	}
	tr.End(psp)
	return psp
}

// recordShard counts one shard call and feeds its outcome to the
// shard's health tracking.
func (c *Coordinator) recordShard(shard int, err error) {
	c.shardCalls[shard].Inc()
	if err != nil {
		c.om.ClusterShardFailures.Inc()
	}
	failure := err != nil && !fatalQueryError(err)
	if _, isOverload := overloadHint(err); isOverload {
		failure = false // shedding load is the admission layer working, not ill health
	}
	c.health[shard].record(!failure, c.cfg.failureThreshold(), c.cfg.retryBackoff())
}

// gatherError turns a scatter's fatal outcomes into the query's error:
// request faults and context expiry propagate verbatim, any shard 429
// makes the whole query a 429 with the max shard Retry-After, and in
// strict mode the first shard failure refuses the query.
func (c *Coordinator) gatherError(st *gatherState) error {
	if st.fatal != nil {
		return st.fatal
	}
	if len(st.overloaded) > 0 {
		return &OverloadedError{Shards: st.overloaded, RetryAfter: st.retryAfter}
	}
	if c.cfg.StrictConsistency && st.firstFail != nil {
		return st.firstFail
	}
	return nil
}

// QueryMany is QueryManyContext with a background context.
func (c *Coordinator) QueryMany(a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	return c.QueryManyContext(context.Background(), a, queries, k)
}

// QueryManyContext implements the batch entry point of server.Backend
// with batch scatter: ONE call per available shard carries every query
// of the batch at k, with k as the merged k, and each query is merged
// with the same rule as QueryContext. Results are byte-identical to
// scattering each query alone (see batchScatter), in input order.
//
// Config.PerQueryScatter restores the old behavior — one scatter-gather
// per query, pipelined up to the cluster's bottleneck capacity (Size) by
// the shared core.FanOut loop — as the comparison baseline.
func (c *Coordinator) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	if err := core.ValidateRequest(a, k); err != nil {
		return nil, err
	}
	if c.cfg.PerQueryScatter {
		return core.FanOut(ctx, c.Size(), queries, func(ctx context.Context, q int32) (*core.Result, error) {
			return c.QueryContext(ctx, a, q, k)
		})
	}
	return c.batchScatter(ctx, a, queries, k)
}

// shardMutator is the per-shard mutation capability (a live.Store in
// process, RemoteShard over /v1/mutate, a ReplicaGroup of either).
type shardMutator interface {
	Mutate(ctx context.Context, ms []graph.Mutation) (live.MutateInfo, error)
}

// Mutate implements the server Mutator probe for a cluster: one mutation
// batch is fanned to EVERY shard backend — each holds the whole graph, so
// each applies the whole batch — and the coordinator serializes batches
// so shard generations advance in lockstep. A shard that fails its first
// attempt is retried once (guardedMutate); surviving failures return a
// MutationError and leave the cluster generation-skewed, which the query
// path detects and refuses to merge across (see GenerationSkewError) —
// correctness is preserved, availability degrades until the shards
// converge.
func (c *Coordinator) Mutate(ctx context.Context, ms []graph.Mutation) (live.MutateInfo, error) {
	muts := make([]shardMutator, len(c.backends))
	for i, b := range c.backends {
		m, ok := b.(shardMutator)
		if !ok {
			return live.MutateInfo{}, &ImmutableShardError{Shard: i}
		}
		muts[i] = m
	}
	c.mutateMu.Lock()
	defer c.mutateMu.Unlock()

	infos := make([]live.MutateInfo, len(muts))
	errs := make([]error, len(muts))
	var wg sync.WaitGroup
	for i, m := range muts {
		wg.Add(1)
		go func(i int, m shardMutator) {
			defer wg.Done()
			infos[i], errs[i] = guardedMutate(ctx, m, ms)
		}(i, m)
	}
	wg.Wait()

	failed := map[int]error{}
	for i, err := range errs {
		switch {
		case err == nil:
		case immutableRemote(err) || isImmutableShard(err):
			// A remote 501, or a replica group whose members are
			// immutable: surface the typed error (mapped to HTTP 501).
			return live.MutateInfo{}, &ImmutableShardError{Shard: i}
		case errors.Is(err, core.ErrInvalidArgument):
			// The batch itself is bad; every shard refused it identically
			// and none applied it, so the cluster is still converged.
			return live.MutateInfo{}, err
		default:
			failed[i] = err
		}
	}
	if len(failed) > 0 {
		return live.MutateInfo{}, &MutationError{Failed: failed}
	}
	info := infos[0]
	for _, in := range infos[1:] {
		info.Rebuilt = info.Rebuilt || in.Rebuilt
	}
	return info, nil
}

var (
	_ ShardBackend = (*core.Pool)(nil)
	_ ShardBackend = (*live.Store)(nil)
	_ ShardBackend = (*RemoteShard)(nil)
	_ shardMutator = (*live.Store)(nil)
	_ shardMutator = (*RemoteShard)(nil)
)
