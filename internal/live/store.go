// Package live serves reverse k-ranks queries over a graph that mutates
// while serving: the evolving-workload pillar of the ROADMAP. A Store
// wraps the immutable-graph machinery (graph.Graph, core.Pool,
// ridx.Index, hub.Labels) behind an epoch model:
//
//   - Reads: every query runs against one immutable state snapshot —
//     graph, pool, index, labels, generation — loaded atomically at entry.
//     Hot loops stay lock-free; the only synchronization a query pays is
//     one RLock on the epoch barrier for its duration, which is what lets
//     writers exclude readers per mutation batch.
//   - Cheap writes (weight-only batches): the writer takes the exclusive
//     epoch barrier, quiesces the engine pool, patches the CSR arc slabs
//     in place (byte-identical to a rebuild — see graph.PatchWeight),
//     invalidates the dynamic index, and publishes a
//     new state at generation+1. No allocation proportional to the graph.
//   - Expensive writes (topology changes): the replacement graph, pool,
//     and index are built OUTSIDE the barrier while the old state keeps
//     serving, then swapped in atomically. Engines observe swaps between
//     queries, never mid-query: an in-flight query holds its snapshot and
//     finishes on the old, internally consistent state.
//   - Hub labels: a mutation makes any labeling stale, so the new state
//     drops it and HubLabel queries transparently fall back to the
//     Dynamic engine — byte-identical results by the HubLabel contract —
//     until a background relabel completes and swaps a labeled pool back
//     in (same generation: installing labels cannot change answers).
//
// Every applied batch advances the store's generation and calls
// Index.Invalidate (which bumps the index generation), so response caches
// keyed on Generation orphan all pre-mutation entries. Results are
// stamped with their snapshot's generation; a cluster coordinator uses
// the stamps to refuse merges across generations.
//
// The correctness contract — asserted by the oracle tests — is that after
// any mutation schedule, query results are byte-identical to a
// from-scratch build of the mutated graph, for every engine.
package live

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/obs"
	"rkranks/internal/ridx"
)

// RelabelParams configures the background hub relabeling that follows a
// mutation when the store was built with labels. The zero value derives
// Count from the initial labeling and uses the random strategy.
type RelabelParams struct {
	// Count is the number of hub roots (<= 0: the initial labeling's
	// count, or |V| without one).
	Count int
	// Strategy orders the roots (hub.Random is the zero value).
	Strategy hub.Strategy
	// Workers bounds build parallelism (<= 0 uses GOMAXPROCS).
	Workers int
	// Samples and Seed configure root selection (see hub.Options).
	Samples int
	Seed    int64
	// Disable keeps serving HubLabel queries through the Dynamic fallback
	// forever after the first mutation instead of relabeling.
	Disable bool
}

// Config configures NewStore.
type Config struct {
	// Options are the engine options every state's pool is built with.
	// Options.Labels is ignored (pass Labels below); Options.Candidates
	// is ignored when CandidateFunc is set.
	Options core.Options
	// PoolSize sizes each state's engine pool (<= 0 derives a default).
	PoolSize int
	// Index optionally attaches a dynamic index, enabling Indexed
	// queries. Weight-only batches invalidate it in place; topology
	// changes replace it with an empty index of the same MaxK (it
	// re-learns from traffic, exactly like a cold start).
	Index ridx.Index
	// Labels optionally attaches a hub labeling, enabling HubLabel
	// queries. See RelabelParams for what happens under churn.
	Labels *hub.Labels
	// Relabel tunes the background relabeling (only meaningful with
	// Labels).
	Relabel RelabelParams
	// CandidateFunc recomputes the candidate mask for each rebuilt graph
	// (cluster shard masks must cover vertices added after boot). Nil
	// uses Options.Candidates, extended with true for added vertices.
	CandidateFunc func(*graph.Graph) ([]bool, error)
	// Metrics is the instrument catalog the store counts its mutation
	// batches, patches, rebuilds and relabels into (/metrics). Stores that
	// share one catalog, like the shards of an in-process live cluster,
	// sum into it. Nil uses standalone (unregistered) instruments.
	Metrics *obs.Metrics
}

// state is one immutable serving epoch. Everything a query touches hangs
// off one state pointer, so a swap can never be observed mid-query.
type state struct {
	gen    uint64
	g      *graph.Graph
	edges  *graph.EdgeStore
	pool   *core.Pool
	idx    ridx.Index
	labels *hub.Labels
	// opts are the base engine options this state's pool was built with
	// (Labels stripped; Candidates/Counted sized to g). Relabel installs
	// reuse them to build the labeled replacement pool.
	opts core.Options
}

// MutateInfo reports one applied batch.
type MutateInfo struct {
	// Applied is the number of mutations applied (always the whole
	// batch: batches are atomic).
	Applied int
	// Generation is the store generation after the batch.
	Generation uint64
	// Rebuilt reports the expensive path (graph rebuilt and swapped);
	// false means the in-place weight patch.
	Rebuilt bool
	// Nodes and Edges describe the graph after the batch.
	Nodes int
	Edges int64
}

// Store is the live mutable backend. It serves the same query surface as
// core.Pool (so it satisfies server.Backend and cache.Target unchanged)
// plus Mutate, and is safe for any mix of concurrent queries and
// mutation batches.
type Store struct {
	cfg        Config
	hubLabeled bool // labels configured at construction; HubLabel stays servable
	maxK       int  // index MaxK, preserved across rebuilds (0 = no index)

	// mutateMu serializes mutation batches and relabel installs.
	mutateMu sync.Mutex
	// stateMu is the epoch barrier: queries hold RLock for their
	// duration, writers take Lock to patch in place or swap states. The
	// write section is short — a weight patch or a pointer store — so
	// readers are never held out for a rebuild.
	stateMu sync.RWMutex
	state   atomic.Pointer[state]

	// om holds the mutation counters (never nil; standalone instruments
	// when Config.Metrics is unset).
	om *obs.Metrics

	relabeling atomic.Bool
}

// NewStore builds a live store serving g.
func NewStore(g *graph.Graph, cfg Config) (*Store, error) {
	if g == nil {
		return nil, fmt.Errorf("live: NewStore requires a graph")
	}
	if cfg.Index != nil && cfg.Index.N() != g.N() {
		return nil, fmt.Errorf("live: index covers %d nodes, graph has %d", cfg.Index.N(), g.N())
	}
	if cfg.Labels != nil && cfg.Labels.N() != g.N() {
		return nil, fmt.Errorf("live: labels cover %d nodes, graph has %d", cfg.Labels.N(), g.N())
	}
	s := &Store{cfg: cfg, hubLabeled: cfg.Labels != nil, om: cfg.Metrics}
	if s.om == nil {
		s.om = obs.NewMetrics(nil)
	}
	if cfg.Index != nil {
		s.maxK = cfg.Index.MaxK()
	}
	opts, err := s.resolveOptions(g)
	if err != nil {
		return nil, err
	}
	// Generations start at 1: on the wire, stamp 0 means "backend without
	// live mutations", which is what lets a cluster merge live and static
	// shard answers without false skew.
	st := &state{gen: 1, g: g, edges: graph.NewEdgeStore(g), idx: cfg.Index, labels: cfg.Labels, opts: opts}
	if st.pool, err = s.buildPool(st.g, opts, st.idx, st.labels); err != nil {
		return nil, err
	}
	s.state.Store(st)
	return s, nil
}

// resolveOptions sizes the base options (class masks) to g.
func (s *Store) resolveOptions(g *graph.Graph) (core.Options, error) {
	opts := s.cfg.Options
	opts.Labels = nil
	if s.cfg.CandidateFunc != nil {
		mask, err := s.cfg.CandidateFunc(g)
		if err != nil {
			return core.Options{}, fmt.Errorf("live: candidate mask: %w", err)
		}
		opts.Candidates = mask
	} else {
		opts.Candidates = extendMask(opts.Candidates, g.N())
	}
	opts.ClusterCandidates = extendMask(opts.ClusterCandidates, g.N())
	opts.Counted = extendMask(opts.Counted, g.N())
	return opts, nil
}

// extendMask grows a class mask to n nodes; vertices added after boot
// join the class (they are fresh, unclassified nodes — excluding them
// silently would make them unqueryable forever).
func extendMask(mask []bool, n int) []bool {
	if mask == nil || len(mask) >= n {
		return mask
	}
	out := make([]bool, n)
	copy(out, mask)
	for i := len(mask); i < n; i++ {
		out[i] = true
	}
	return out
}

// buildPool constructs one state's engine pool.
func (s *Store) buildPool(g *graph.Graph, opts core.Options, idx ridx.Index, labels *hub.Labels) (*core.Pool, error) {
	opts.Labels = labels
	if idx != nil {
		return core.NewPoolWithIndex(g, opts, s.cfg.PoolSize, idx)
	}
	return core.NewPool(g, opts, s.cfg.PoolSize), nil
}

// --- query surface (server.Backend / cache.Target) ----------------------

// QueryContext answers one query against the current state snapshot,
// stamping the result with the snapshot's generation. HubLabel queries
// run through the Dynamic fallback while the labeling is stale
// (byte-identical results by the HubLabel contract).
func (s *Store) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	// The live.snapshot span measures the wait for the epoch barrier —
	// the only time a query can be held out by a mutation batch.
	tr := obs.FromContext(ctx)
	sp := tr.Begin(obs.StageLiveSnapshot)
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	st := s.state.Load()
	sp.SetAttr("generation", int64(st.gen))
	if s.hubLabeled && st.labels == nil {
		sp.SetAttr("labels_stale", 1)
	}
	tr.End(sp)
	res, err := st.pool.QueryContext(ctx, s.mapAlgorithm(st, a), q, k)
	if err != nil {
		return nil, err
	}
	res.Generation = st.gen
	return res, nil
}

// QueryManyContext is the batch entry point; one snapshot serves the
// whole batch, so every result carries the same generation.
func (s *Store) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	tr := obs.FromContext(ctx)
	sp := tr.Begin(obs.StageLiveSnapshot)
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	st := s.state.Load()
	sp.SetAttr("generation", int64(st.gen))
	tr.End(sp)
	results, err := st.pool.QueryManyContext(ctx, s.mapAlgorithm(st, a), queries, k)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r != nil {
			r.Generation = st.gen
		}
	}
	return results, nil
}

// mapAlgorithm routes HubLabel to Dynamic while the labeling is stale.
// When the store never had labels the request passes through so the pool
// rejects it with the usual typed error.
func (s *Store) mapAlgorithm(st *state, a core.Algorithm) core.Algorithm {
	if a == core.HubLabel && st.labels == nil && s.hubLabeled {
		return core.Dynamic
	}
	return a
}

// Size implements server.Backend (constant across swaps).
func (s *Store) Size() int { return s.state.Load().pool.Size() }

// Indexed implements server.Backend.
func (s *Store) Indexed() bool { return s.state.Load().idx != nil }

// HubLabeled reports whether HubLabel queries are servable. It stays
// true while the labeling is stale — the Dynamic fallback keeps the
// algorithm available with identical results.
func (s *Store) HubLabeled() bool { return s.hubLabeled }

// HubLabelBytes reports the current labeling's footprint (0 while stale).
func (s *Store) HubLabelBytes() int64 {
	if l := s.state.Load().labels; l != nil {
		return l.Bytes()
	}
	return 0
}

// CSRBytes reports the current graph's CSR footprint.
func (s *Store) CSRBytes() int64 { return s.state.Load().g.CSRBytes() }

// Graph returns the current graph snapshot (serving-layer metadata).
func (s *Store) Graph() *graph.Graph { return s.state.Load().g }

// Generation implements the response-cache probe: the store generation,
// advanced once per applied batch. Monotone for the store's lifetime;
// starts at 1 (0 is the wire's "no live backend" stamp).
func (s *Store) Generation() uint64 { return s.state.Load().gen }

// LabelsStale reports that HubLabel queries are currently served through
// the Dynamic fallback.
func (s *Store) LabelsStale() bool {
	return s.hubLabeled && s.state.Load().labels == nil
}

// --- mutation path ------------------------------------------------------

// Mutate applies one atomic batch: either every mutation applies and the
// generation advances by one, or the store is untouched and a typed
// validation error (wrapping core.ErrInvalidArgument) reports why.
// Batches are serialized; queries keep serving the pre-batch state until
// the swap and are never interrupted mid-query.
func (s *Store) Mutate(ctx context.Context, ms []graph.Mutation) (MutateInfo, error) {
	if len(ms) == 0 {
		return MutateInfo{}, fmt.Errorf("live: empty mutation batch: %w", core.ErrInvalidArgument)
	}
	start := time.Now()
	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()
	if err := ctx.Err(); err != nil {
		return MutateInfo{}, err
	}
	cur := s.state.Load()

	// Validate-and-apply against a clone so a mid-batch failure leaves
	// the store untouched (batch atomicity).
	next := cur.edges.Clone()
	for i, m := range ms {
		if err := next.Apply(m); err != nil {
			return MutateInfo{}, fmt.Errorf("live: mutation %d: %w (%w)", i, err, core.ErrInvalidArgument)
		}
	}

	var info MutateInfo
	var err error
	if graph.WeightOnly(ms) {
		info, err = s.applyPatch(cur, next, ms)
	} else {
		info, err = s.applyRebuild(cur, next)
	}
	if err != nil {
		return MutateInfo{}, err
	}
	s.om.MutationBatches.Inc()
	s.om.MutationOps.Add(int64(len(ms)))
	if info.Rebuilt {
		s.om.MutationRebuilds.Inc()
	} else {
		s.om.MutationPatches.Inc()
	}
	s.om.MutationApplySeconds.Observe(time.Since(start).Seconds())
	info.Applied = len(ms)
	if s.hubLabeled && !s.cfg.Relabel.Disable {
		s.kickRelabel()
	}
	return info, nil
}

// applyPatch is the cheap write path: weight-only batches patch the CSR
// arc slabs in place under the exclusive epoch barrier. The pool quiesce
// inside the barrier is defense in depth — with every query holding the
// barrier's RLock no engine can be borrowed here — and documents the
// invariant the patch relies on: no traversal may be running.
func (s *Store) applyPatch(cur *state, next *graph.EdgeStore, ms []graph.Mutation) (MutateInfo, error) {
	s.stateMu.Lock()
	release := cur.pool.Quiesce()
	for _, m := range ms {
		cur.g.PatchWeight(m.U, m.V, m.Weight)
	}
	if cur.idx != nil {
		cur.idx.Invalidate()
	}
	st := &state{
		gen:   cur.gen + 1,
		g:     cur.g,
		edges: next,
		pool:  cur.pool,
		idx:   cur.idx,
		opts:  cur.opts,
		// labels: nil — weight changes stale any labeling.
	}
	s.state.Store(st)
	release()
	s.stateMu.Unlock()
	return MutateInfo{Generation: st.gen, Nodes: st.g.N(), Edges: st.g.M()}, nil
}

// applyRebuild is the expensive write path: topology changed, so the
// graph, pool, and index are rebuilt outside the barrier (the old state
// keeps serving) and swapped in atomically. The dynamic index restarts
// empty at the same MaxK — its facts are graph-dependent and re-learned
// from traffic — and any labeling is dropped for the background relabel.
func (s *Store) applyRebuild(cur *state, next *graph.EdgeStore) (MutateInfo, error) {
	g2 := next.Build()
	opts, err := s.resolveOptions(g2)
	if err != nil {
		return MutateInfo{}, fmt.Errorf("%w (%w)", err, core.ErrInvalidArgument)
	}
	var idx2 ridx.Index
	if cur.idx != nil {
		idx2 = ridx.NewSharded(g2.N(), s.maxK)
	}
	pool2, err := s.buildPool(g2, opts, idx2, nil)
	if err != nil {
		return MutateInfo{}, err
	}
	st := &state{gen: cur.gen + 1, g: g2, edges: next, pool: pool2, idx: idx2, opts: opts}
	s.stateMu.Lock()
	s.state.Store(st)
	s.stateMu.Unlock()
	return MutateInfo{Generation: st.gen, Rebuilt: true, Nodes: g2.N(), Edges: g2.M()}, nil
}

// --- background relabel -------------------------------------------------

// kickRelabel ensures exactly one background relabel goroutine is alive
// while the labeling is stale. The post-clear re-check closes the race
// where a mutation lands between the goroutine's last staleness check and
// its flag clear — whichever side loses the CAS, someone owns the rebuild.
func (s *Store) kickRelabel() {
	if !s.relabeling.CompareAndSwap(false, true) {
		return
	}
	go func() {
		for {
			s.relabelUntilFresh()
			s.relabeling.Store(false)
			if s.state.Load().labels != nil {
				return
			}
			if !s.relabeling.CompareAndSwap(false, true) {
				return // a newer mutation's kick took over
			}
		}
	}()
}

// relabelUntilFresh rebuilds the hub labeling for the current graph and
// swaps in a labeled pool, repeating if mutations moved the graph on
// while the build ran. Installing labels keeps the generation: HubLabel
// results are byte-identical to Dynamic's, so cached answers stay valid.
func (s *Store) relabelUntilFresh() {
	for {
		st := s.state.Load()
		if st.labels != nil {
			return
		}
		labels, err := s.buildLabels(st.g)
		if err != nil {
			return // keep the Dynamic fallback; the next mutation retries
		}
		s.mutateMu.Lock()
		cur := s.state.Load()
		if cur != st {
			s.mutateMu.Unlock()
			continue // graph moved on; rebuild against the new state
		}
		pool2, err := s.buildPool(cur.g, cur.opts, cur.idx, labels)
		if err != nil {
			s.mutateMu.Unlock()
			return
		}
		fresh := &state{gen: cur.gen, g: cur.g, edges: cur.edges, pool: pool2, idx: cur.idx, labels: labels, opts: cur.opts}
		s.stateMu.Lock()
		s.state.Store(fresh)
		s.stateMu.Unlock()
		s.om.MutationRelabels.Inc()
		s.mutateMu.Unlock()
		return
	}
}

// buildLabels runs the configured relabeling over g.
func (s *Store) buildLabels(g *graph.Graph) (*hub.Labels, error) {
	p := s.cfg.Relabel
	count := p.Count
	if count <= 0 {
		if s.cfg.Labels != nil {
			count = s.cfg.Labels.HubCount()
		} else {
			count = g.N()
		}
	}
	if count > g.N() {
		count = g.N()
	}
	roots := hub.Order(g, p.Strategy, count, hub.Options{Samples: p.Samples, Seed: p.Seed, Workers: p.Workers})
	return hub.BuildLabels(g, roots, p.Workers)
}

// AwaitLabels blocks until the labeling is fresh or ctx expires; tests
// and operators use it to observe relabel completion deterministically.
func (s *Store) AwaitLabels(ctx context.Context) error {
	for s.LabelsStale() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if !s.relabeling.Load() && s.LabelsStale() {
			// No relabel in flight (e.g. an earlier build failed): kick one.
			s.kickRelabel()
		}
	}
	return nil
}
