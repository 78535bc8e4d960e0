// Package rkranks answers reverse k-ranks queries on large weighted graphs,
// implementing "Reverse k-Ranks Queries on Large Graphs" (Qian, Li,
// Mamoulis, Liu, Cheung — EDBT 2017).
//
// Given a query node q, the reverse k-ranks query returns the k nodes p
// with the smallest Rank(p, q), where Rank(p, q) is q's position in p's
// list of nodes ordered by shortest-path distance. Unlike reverse top-k /
// reverse k-NN queries, the result always has exactly k entries, which
// makes it usable for "cold" query nodes (new users, remote locations)
// and for shortlisting around "hot" ones.
//
// # Quick start
//
//	b := rkranks.NewBuilder(false) // undirected
//	alice, bob := b.AddLabeledNode("alice"), b.AddLabeledNode("bob")
//	b.MustAddEdge(alice, bob, 1.0)
//	g := b.Finalize()
//
//	e := rkranks.NewEngine(g, rkranks.Options{})
//	res, err := e.Query(rkranks.Dynamic, alice, 2)
//
// Five engines share one result semantics and differ only in cost:
//
//   - Naive — brute force over all nodes (baseline).
//   - Static — SDS-tree filter-and-refine (paper Section 3).
//   - Dynamic — Dynamic Bounded SDS-tree (Section 4); the default choice
//     without precomputation.
//   - Indexed — Dynamic plus the Check/Reverse-Rank dictionaries
//     (Section 5); fastest once an Index is built, and the index keeps
//     improving as queries run.
//   - HubLabel — Dynamic plus rank lower bounds read off a precomputed
//     pruned 2-hop hub labeling (BuildHubLabels, Options.Labels): most
//     candidates are disqualified by a label scan alone, without any
//     per-candidate Dijkstra work.
//
// Bichromatic queries (Definitions 3-4: query nodes of one class, results
// of another, e.g. stores and communities on a road network) are selected
// through Options.Candidates and Options.Counted.
//
// # Concurrency
//
// All functionality is pure Go with no dependencies outside the standard
// library. An Engine is not safe for concurrent use (it owns per-query
// workspaces); a Pool holds one engine per permit and serves queries from
// many goroutines. An index (BuildIndex, LoadIndex) is lock-striped, so
// one engine or any number of engines may use it — Indexed queries from a
// whole pool then read one set of dictionaries and feed their refinements
// back into it, so the index improves with aggregate traffic:
//
//	ix, _ := rkranks.BuildIndex(g, rkranks.IndexParams{
//		HubFraction: 0.1, RankFraction: 0.1, MaxK: 100,
//		Strategy: rkranks.DegreeHubs,
//	})
//	pool, _ := rkranks.NewPoolWithIndex(g, rkranks.Options{}, 0, ix)
//	res, _ := pool.Query(rkranks.Indexed, q, 10) // safe from any goroutine
//
// A query runs on one goroutine; pools parallelize across queries, one
// engine per core by default, and Pool.QueryManyContext batches reuse
// refinement work between the queries of a batch.
//
// Every query entry point has a context-aware variant
// (Engine.QueryContext, Pool.QueryContext, Pool.QueryManyContext):
// cancellation or deadline expiry stops the traversal and every in-flight
// rank refinement within a bounded number of settles, discarding — never
// applying — partial work, so engines and shared indexes stay consistent.
// Malformed requests fail fast with typed errors (ErrInvalidArgument and
// its refinements). cmd/rkserve serves all of this over HTTP with
// admission control and graceful drain; see the README's "Serving over
// HTTP".
//
// Beyond one process, NewCluster partitions the candidate class into
// vertex shards — one masked engine pool each — behind a scatter-gather
// coordinator whose merged results are byte-identical to a single pool's:
// each query goes once to every shard at the client's k; each shard
// prunes with the bounds of the whole candidate class, as one node
// would, and returns every one of its own candidates that is in the
// merged top k, so one merge is exact.
// rkserve -topology serves the same coordinator over HTTP, with shards
// in-process or on remote rkserve instances (rkserve -shard i/P); see the
// README's "Clustered serving". Each shard may be a replica SET
// (ClusterOptions.Replicas, or per-shard replica lists in a topology
// file): queries load-balance across healthy replicas and fail over
// without changing a byte of any answer, and replicas inherit a leader's
// learned index state over /v1/index/snapshot + /v1/index/deltas instead
// of re-deriving it from their own traffic; see the README's
// "Replication & failover".
package rkranks

import (
	"errors"
	"fmt"
	"io"
	"os"

	"rkranks/internal/api"
	"rkranks/internal/cache"
	"rkranks/internal/cluster"
	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/live"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
	"rkranks/internal/sssp"
	"rkranks/internal/topk"
)

// Re-exported core types. The aliases give external packages full access to
// the implementation's methods without reaching into internal packages.
type (
	// Graph is an immutable weighted graph in CSR form; build one with a
	// Builder or load one with ReadGraph.
	Graph = graph.Graph
	// Builder accumulates nodes and edges and produces an immutable Graph.
	Builder = graph.Builder
	// Edge is a weighted edge, as reported by Graph.Edges.
	Edge = graph.Edge
	// Arc is one out-arc (target, weight), as returned by Graph.Neighbors
	// and Graph.RNeighbors.
	Arc = graph.Arc
	// Engine evaluates reverse k-ranks queries; it owns reusable
	// workspaces and is not safe for concurrent use.
	Engine = core.Engine
	// Options configures an Engine (bound selection, bichromatic classes).
	Options = core.Options
	// Algorithm selects one of the four engines.
	Algorithm = core.Algorithm
	// Bounds selects the Theorem-2 lower-bound components for the dynamic
	// engines.
	Bounds = core.Bounds
	// Result is a query answer: k (node, rank) entries plus work counters.
	Result = core.Result
	// Stats reports the work one query performed.
	Stats = core.Stats
	// Entry pairs a node with a rank value.
	Entry = rank.Entry
	// Index is the Section-5 Check/Reverse-Rank dictionary structure, as
	// Engine.SetIndex, NewPoolWithIndex and the cluster and live options
	// accept it.
	Index = ridx.Index
	// ConcurrentIndex is the Index implementation BuildIndex and LoadIndex
	// return: lock-striped, so any number of engines may share it.
	ConcurrentIndex = ridx.ShardedIndex
	// HubStrategy selects how index hubs are chosen.
	HubStrategy = hub.Strategy
	// Pool serves queries concurrently (one engine per permit); built with
	// NewPoolWithIndex it serves Indexed queries against one shared index.
	Pool = core.Pool
	// Cluster scatters each query across vertex shards in one round and
	// merges the answers; results are byte-identical to a single-node
	// Pool (see NewCluster).
	Cluster = cluster.Coordinator
	// CachedBackend decorates a Pool or Cluster with a response cache and
	// singleflight coalescing (see NewCachedBackend).
	CachedBackend = cache.Backend
	// QueryBackend is the query surface CachedBackend decorates; Pool and
	// Cluster both satisfy it.
	QueryBackend = cache.Target
	// CacheSnapshot reports a response cache's counters
	// (CachedBackend.Cache().Stats()).
	CacheSnapshot = cache.Snapshot
	// HubLabels is a pruned 2-hop hub labeling: per-node sorted hub
	// distance lists plus per-hub inverted lists, built once with
	// BuildHubLabels and shared read-only by any number of engines via
	// Options.Labels to enable the HubLabel engine (see SaveHubLabels /
	// LoadHubLabels for the on-disk form).
	HubLabels = hub.Labels
)

// Algorithm values.
const (
	Naive    = core.Naive
	Static   = core.Static
	Dynamic  = core.Dynamic
	Indexed  = core.Indexed
	HubLabel = core.HubLabel
)

// Bound components (see the paper's Theorem 2 and Tables 12-13).
const (
	BoundParent = core.BoundParent
	BoundHeight = core.BoundHeight
	BoundCount  = core.BoundCount
	BoundsAll   = core.BoundsAll
)

// Hub-selection strategies (paper Section 5.1).
const (
	RandomHubs    = hub.Random
	DegreeHubs    = hub.DegreeFirst
	ClosenessHubs = hub.ClosenessFirst
)

// RankUnreachable is the rank reported when no path exists.
const RankUnreachable = rank.Unreachable

// Typed request-validation errors, surfaced by Engine and Pool query
// entry points (including QueryContext/QueryManyContext) and designed for
// errors.Is dispatch at serving boundaries: every one of them wraps
// ErrInvalidArgument, so a server can map the whole family to a 400-class
// response and still branch on the specific cause. Cancellation and
// deadline expiry surface as the standard context errors
// (context.Canceled, context.DeadlineExceeded).
var (
	ErrInvalidArgument  = core.ErrInvalidArgument
	ErrUnknownAlgorithm = core.ErrUnknownAlgorithm
	ErrInvalidK         = core.ErrInvalidK
	ErrInvalidQueryNode = core.ErrInvalidQueryNode
	ErrIndexRequired    = core.ErrIndexRequired
	ErrLabelsRequired   = core.ErrLabelsRequired
)

// ErrInvalidOptions is the root of every constructor-options validation
// error (ClusterOptions, CacheOptions, IndexParams, ...): malformed
// options fail fast with an error wrapping it, so callers can errors.Is
// the whole family. Every options struct follows one convention — the
// zero value of a field means "use the sane default"; only values that
// are affirmatively out of range are errors.
var ErrInvalidOptions = errors.New("rkranks: invalid options")

// optErr builds one ErrInvalidOptions-wrapping validation error.
func optErr(format string, args ...any) error {
	return fmt.Errorf("rkranks: "+format+": %w", append(args, ErrInvalidOptions)...)
}

// NewBuilder returns a graph builder; directed selects edge orientation.
func NewBuilder(directed bool) *Builder { return graph.NewBuilder(directed) }

// NewEngine returns a query engine over g.
func NewEngine(g *Graph, opts Options) *Engine { return core.NewEngine(g, opts) }

// NewPool returns a pool of engines for concurrent index-free querying
// (size <= 0 uses GOMAXPROCS). To serve Indexed queries from a pool, use
// NewPoolWithIndex.
func NewPool(g *Graph, opts Options, size int) *Pool { return core.NewPool(g, opts, size) }

// NewPoolWithIndex returns a pool of size engines (size <= 0 uses
// GOMAXPROCS) sharing one concurrency-safe index, enabling Indexed — the
// fastest engine — for concurrent querying: every query's refinements feed
// the shared dictionaries, so the index learns from the pool's aggregate
// traffic. Build the index with BuildIndex or load it with LoadIndex.
func NewPoolWithIndex(g *Graph, opts Options, size int, ix Index) (*Pool, error) {
	return core.NewPoolWithIndex(g, opts, size, ix)
}

// ErrShardUnavailable is the typed availability error a Cluster reports
// when shard backends cannot answer (errors.Is-matchable; wrapped by the
// per-shard detail errors).
var ErrShardUnavailable = cluster.ErrShardUnavailable

// ClusterOptions configures NewCluster. The zero value is valid: one
// shard, modulo partitioning, default pool size, degraded (partial)
// answers on shard failure.
type ClusterOptions struct {
	// Shards is the number of vertex shards (0 defaults to 1).
	Shards int
	// Partitioner assigns vertices to shards: "modulo" (the default) or
	// "degree" (degree-balanced, better on power-law graphs).
	Partitioner string
	// PoolSize sizes each shard's engine pool (<= 0 derives a default).
	PoolSize int
	// Index, when non-nil, is ONE index (from BuildIndex / LoadIndex)
	// shared by every shard, enabling Indexed queries cluster-wide exactly
	// like NewPoolWithIndex does for a single pool. In Live mode it is
	// used only as a sizing template: each live shard starts its OWN empty
	// index at the same MaxK (live shards cannot share one — each store
	// swaps in a fresh index when a topology mutation forces a rebuild).
	Index Index
	// StrictConsistency refuses queries whenever a shard is unavailable
	// instead of answering partially (Result.Partial).
	StrictConsistency bool
	// Replicas runs each shard as a replica set of this many identical
	// backends (0 or 1 means unreplicated): queries load-balance across
	// healthy replicas and fail over transparently — answers are
	// byte-identical either way — and mutations fan to every replica in
	// lockstep. See the README's "Replication & failover".
	Replicas int
	// Live serves a MUTABLE graph: each shard becomes a live store and
	// the cluster accepts Cluster.Mutate batches, fanned to every shard
	// in lockstep. Queries refuse to merge answers from two graph
	// generations (they retry, then fail with a generation-skew error).
	Live bool
	// Relabel tunes the live shards' background relabeling (Live only).
	Relabel RelabelParams
}

// NewCluster builds an in-process sharded cluster over g: one masked
// engine pool per vertex shard behind a scatter-gather coordinator whose
// merged results are byte-identical to a single-node pool's — entries,
// ranks, and tie-breaks included. Each query makes one call per shard at
// its k; each shard bounds the whole candidate class as one node would,
// so it does about one node's work per query, and returns every one of
// its own candidates that is in the merged top k. The same coordinator
// type also fronts remote rkserve shards (see rkserve -topology); this
// constructor covers the in-process topology.
//
// With ClusterOptions.Live, shards are live stores instead of static
// pools and the coordinator accepts mutation batches (Cluster.Mutate).
// opts.Labels attaches one hub labeling to every shard either way (see
// NewLiveBackend for staleness semantics under mutations).
func NewCluster(g *Graph, opts Options, co ClusterOptions) (*Cluster, error) {
	if co.Shards == 0 {
		co.Shards = 1
	}
	if co.Shards < 0 {
		return nil, optErr("ClusterOptions.Shards must be >= 1, got %d", co.Shards)
	}
	if co.Replicas < 0 {
		return nil, optErr("ClusterOptions.Replicas must be >= 0, got %d", co.Replicas)
	}
	part, err := cluster.ParsePartitioner(co.Partitioner)
	if err != nil {
		return nil, optErr("%s", err)
	}
	cfg := cluster.Config{StrictConsistency: co.StrictConsistency}
	if co.Live {
		indexMaxK := 0
		if co.Index != nil {
			indexMaxK = co.Index.MaxK()
		}
		return cluster.NewLocalLive(g, live.Config{
			Options:  opts,
			PoolSize: co.PoolSize,
			Relabel:  co.Relabel,
		}, indexMaxK, part, co.Shards, co.Replicas, cfg)
	}
	return cluster.NewLocal(g, opts, part, co.Shards, co.Replicas, co.PoolSize, co.Index, cfg)
}

// ReplicatedIndex wraps a ConcurrentIndex with a replication delta log:
// every dictionary refinement the index learns is also appended to a
// bounded log, so rkserve can stream the learned state to follower
// replicas (GET /v1/index/snapshot + /v1/index/deltas) instead of each
// replica re-deriving it from its own traffic. It implements Index and
// is safe to share exactly like the ConcurrentIndex it wraps.
type ReplicatedIndex = ridx.Replicated

// NewReplicatedIndex wraps ix for replication with a default-sized delta
// log. Pass the result anywhere an Index is accepted (NewPoolWithIndex,
// ClusterOptions.Index).
func NewReplicatedIndex(ix *ConcurrentIndex) *ReplicatedIndex {
	return ridx.NewReplicated(ix, 0)
}

// Live mutation surface. A LiveBackend (or a Live cluster) serves the
// same query API as a Pool while accepting mutation batches that change
// the graph between queries — never during one. See the README's "Live
// mutations" for the update model (in-place weight patches vs background
// rebuilds) and the staleness semantics of hub labelings under churn.
type (
	// Mutation is one graph edit: an edge insert/delete, a weight change,
	// or a vertex addition. Build them with InsertEdge / DeleteEdge /
	// SetWeight / AddVertices.
	Mutation = graph.Mutation
	// MutateInfo summarizes one applied mutation batch: the generation it
	// produced and whether it patched in place or rebuilt the graph.
	MutateInfo = live.MutateInfo
	// LiveBackend serves queries over a mutable graph: reads are
	// lock-free in the hot loops, mutation batches apply under a brief
	// exclusive barrier (or build replacement state in the background and
	// swap it in atomically), and every applied batch advances
	// Result.Generation.
	LiveBackend = live.Store
	// RelabelParams tunes a live backend's background hub relabeling
	// (zero value: rebuild a same-sized labeling with default
	// parallelism).
	RelabelParams = live.RelabelParams
)

// InsertEdge mutates: add edge u→v (both directions when the graph is
// undirected) with weight w. It fails on a duplicate of an existing edge.
func InsertEdge(u, v int32, w float64) Mutation { return graph.InsertEdge(u, v, w) }

// DeleteEdge mutates: remove the edge u→v. It fails when no such edge
// exists, or when parallel edges make the pair ambiguous.
func DeleteEdge(u, v int32) Mutation { return graph.DeleteEdge(u, v) }

// SetWeight mutates: change the weight of the existing edge u→v to w.
// Batches consisting only of weight changes take the cheap in-place
// update path.
func SetWeight(u, v int32, w float64) Mutation { return graph.SetWeight(u, v, w) }

// AddVertices mutates: append count isolated vertices (ids |V|..|V|+count-1),
// typically followed by InsertEdge mutations wiring them in.
func AddVertices(count int) Mutation { return graph.AddVertices(count) }

// LiveOptions configures NewLiveBackend. The zero value is valid: no
// index, no labels, default pool size and relabeling.
type LiveOptions struct {
	// Options configures the engines exactly like NewPool; bichromatic
	// Candidates/Counted masks are carried across rebuilds (new vertices
	// join both classes). Options.Labels enables HubLabel queries.
	// Mutations mark the labeling stale: HubLabel queries transparently
	// fall back to Dynamic (identical answers, less pruning) until a
	// background relabel completes.
	Options Options
	// PoolSize sizes the engine pool (<= 0 derives a default).
	PoolSize int
	// Index, when non-nil, enables Indexed queries (from BuildIndex /
	// LoadIndex). Weight patches invalidate it in place (it re-learns
	// from traffic); topology rebuilds replace it with an empty index at
	// the same MaxK.
	Index Index
	// Relabel tunes the background relabeling that runs after mutations
	// when Options.Labels was attached.
	Relabel RelabelParams
}

// NewLiveBackend wraps g in a mutable store: LiveBackend.Mutate applies
// batches of edits, and queries (QueryContext / QueryManyContext) always
// observe a complete generation — a batch either happened entirely
// before a query or entirely after it, never midway. Weight-only batches
// patch the CSR arrays in place under a brief exclusive barrier;
// topology changes rebuild graph, pool, and index in the background
// while the old state keeps serving, then swap atomically. Answers after
// any batch are byte-identical to rebuilding from scratch:
//
//	lb, _ := rkranks.NewLiveBackend(g, rkranks.LiveOptions{})
//	info, _ := lb.Mutate(ctx, []rkranks.Mutation{rkranks.SetWeight(u, v, 2.5)})
//	res, _ := lb.QueryContext(ctx, rkranks.Dynamic, q, 10) // res.Generation == info.Generation
func NewLiveBackend(g *Graph, o LiveOptions) (*LiveBackend, error) {
	return live.NewStore(g, live.Config{
		Options:  o.Options,
		PoolSize: o.PoolSize,
		Index:    o.Index,
		Relabel:  o.Relabel,
	})
}

// HTTP client for rkserve instances. The same wire types
// back the servers themselves, so the client is always in sync with the
// protocol (one error envelope, one request schema, versioned paths).
type (
	// Client is a typed HTTP client for the /v1 API: Query, Batch,
	// Mutate, Health, IndexSnapshot, IndexDeltas. Counters are on the
	// server's GET /metrics. Safe for concurrent use.
	Client = api.Client
	// StatusError is the typed error a Client returns for non-2xx
	// responses: HTTP status, machine-readable code, and the server's
	// Retry-After hint for 429/503 (errors.As-matchable).
	StatusError = api.StatusError
	// ClientAlgorithm names an engine on the wire ("dynamic", "indexed",
	// ...); convert with ClientAlgorithm(Dynamic.String()) or pass the
	// zero value to use the server's default.
	ClientAlgorithm = api.Algorithm
)

// NewClient returns a Client for the rkserve instance at base
// (e.g. "http://localhost:8080"):
//
//	c := rkranks.NewClient("http://localhost:8080")
//	res, err := c.Query(ctx, "", q, 10, 0) // server-default algorithm, no timeout
func NewClient(base string) *Client { return api.NewClient(base) }

// CacheOptions configures NewCachedBackend. The zero value is valid
// (64 MiB budget, default lock-shard count).
type CacheOptions struct {
	// MaxMB is the cache-wide budget in MiB (0 defaults to 64). The
	// cache stores canonical results only, so its answers are
	// byte-identical to the backend recomputing them — even while a
	// shared dynamic index keeps refining (see the cache package docs).
	MaxMB int
	// Shards overrides the cache's lock-shard count (0 picks a default).
	Shards int
}

// NewCachedBackend wraps a Pool or Cluster with a byte-budgeted response
// cache plus singleflight coalescing: repeated queries answer from
// memory, and concurrent duplicates admit ONE engine permit while the
// followers wait on the leader's canonical result. The wrapper serves
// the same query surface as what it wraps, so it drops in anywhere a
// Pool or Cluster was used (including server configurations; rkserve
// exposes it as -cache-mb):
//
//	pool, _ := rkranks.NewPoolWithIndex(g, rkranks.Options{}, 0, ix)
//	cached, _ := rkranks.NewCachedBackend(pool, rkranks.CacheOptions{MaxMB: 64})
//	res, _ := cached.QueryContext(ctx, rkranks.Indexed, q, 10)
func NewCachedBackend(backend QueryBackend, opts CacheOptions) (*CachedBackend, error) {
	if opts.MaxMB == 0 {
		opts.MaxMB = 64
	}
	if opts.MaxMB < 0 {
		return nil, optErr("CacheOptions.MaxMB must be >= 1, got %d", opts.MaxMB)
	}
	return cache.NewBackend(backend, cache.Config{
		MaxBytes: int64(opts.MaxMB) << 20,
		Shards:   opts.Shards,
	})
}

// SaveIndex writes an index to a file that LoadIndex reads.
func SaveIndex(path string, ix Index) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ix.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadIndex reads an index written by SaveIndex, ready for an Engine or
// NewPoolWithIndex.
func LoadIndex(path string) (*ConcurrentIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := ridx.Read(f)
	if err != nil {
		return nil, err
	}
	return snap.Sharded(), nil
}

// HubLabelParams configures BuildHubLabels.
type HubLabelParams struct {
	// Count is the number of hub roots H (clamped to |V|; <= 0 defaults to
	// |V|, a complete labeling — exact distances for every reachable pair
	// and the strongest query-time pruning). Partial labelings (H < |V|)
	// cost less to build and store; the engine simply falls back to CSR
	// refinements more often.
	Count int
	// Strategy orders the roots; the zero value is RandomHubs, and
	// DegreeHubs prunes best on the skewed-degree graphs of the paper.
	Strategy HubStrategy
	// Workers bounds build parallelism (<= 0 uses GOMAXPROCS). The
	// labeling is identical for every worker count.
	Workers int
	// Samples and Seed configure root selection exactly like IndexParams
	// (Samples only matters for ClosenessHubs; 0 picks a default).
	Samples int
	Seed    int64
}

// BuildHubLabels precomputes a pruned 2-hop hub labeling of g for the
// HubLabel engine: roots chosen by the strategy, a pruned Dijkstra per
// root, with label entries kept only where no earlier root already covers
// the pair. Attach the result to engines via Options.Labels (it is
// read-only after construction and safe to share across a whole Pool or
// Cluster):
//
//	labels, _ := rkranks.BuildHubLabels(g, rkranks.HubLabelParams{Strategy: rkranks.DegreeHubs})
//	pool := rkranks.NewPool(g, rkranks.Options{Labels: labels}, 0)
//	res, _ := pool.Query(rkranks.HubLabel, q, 10)
func BuildHubLabels(g *Graph, p HubLabelParams) (*HubLabels, error) {
	h := p.Count
	if h <= 0 || h > g.N() {
		h = g.N()
	}
	roots := hub.Order(g, p.Strategy, h, hub.Options{Samples: p.Samples, Seed: p.Seed, Workers: p.Workers})
	return hub.BuildLabels(g, roots, p.Workers)
}

// SaveHubLabels writes a hub labeling to a file in the versioned binary
// format rkserve loads with -hub-load.
func SaveHubLabels(path string, l *HubLabels) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadHubLabels reads a labeling written by SaveHubLabels. The labeling
// records the graph's node count and direction; NewEngine rejects a
// mismatch against the graph it is attached to.
func LoadHubLabels(path string) (*HubLabels, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hub.ReadLabels(f)
}

// ReadGraph loads a graph from a file (binary for the ".rkg" extension,
// text edge-list otherwise; see the graph package formats).
func ReadGraph(path string) (*Graph, error) { return graph.ReadFile(path) }

// WriteGraph stores a graph to a file, dispatching on the ".rkg" extension.
func WriteGraph(path string, g *Graph) error { return graph.WriteFile(path, g) }

// ReadGraphFrom parses the text edge-list format from r.
func ReadGraphFrom(r io.Reader) (*Graph, error) { return graph.ReadText(r) }

// IndexParams configures BuildIndex. Fractions follow the paper's h and m
// parameters (Table 5 defaults: h = m = 0.1, Degree First); the zero
// value picks exactly those defaults with MaxK = 100.
type IndexParams struct {
	// HubFraction is h = H/|V|, the fraction of nodes used as hubs
	// (0 defaults to 0.1).
	HubFraction float64
	// RankFraction is m = M/|V|, the fraction of nodes ranked per hub
	// (0 defaults to 0.1).
	RankFraction float64
	// MaxK is the largest query k the index will support (paper's K;
	// 0 defaults to 100).
	MaxK int
	// Strategy picks hubs; the zero value is RandomHubs, and the paper's
	// best performer is DegreeHubs.
	Strategy HubStrategy
	// Counted restricts rank counting for bichromatic indexes; nil counts
	// every node (monochromatic).
	Counted []bool
	// Candidates restricts which hubs may contribute entries (bichromatic
	// mode): only candidate-class nodes are eligible results, so only
	// they may occupy dictionary slots. Nil admits every hub.
	Candidates []bool
	// Seed drives hub sampling.
	Seed int64
}

// buildParams validates p and resolves it into ridx build parameters.
func buildParams(g *Graph, p IndexParams) (ridx.BuildParams, error) {
	if p.HubFraction == 0 {
		p.HubFraction = 0.1
	}
	if p.RankFraction == 0 {
		p.RankFraction = 0.1
	}
	if p.MaxK == 0 {
		p.MaxK = 100
	}
	if p.HubFraction < 0 || p.HubFraction > 1 {
		return ridx.BuildParams{}, optErr("IndexParams.HubFraction must be in (0,1], got %g", p.HubFraction)
	}
	if p.RankFraction < 0 || p.RankFraction > 1 {
		return ridx.BuildParams{}, optErr("IndexParams.RankFraction must be in (0,1], got %g", p.RankFraction)
	}
	if p.MaxK < 1 {
		return ridx.BuildParams{}, optErr("IndexParams.MaxK must be >= 1, got %d", p.MaxK)
	}
	h := int(float64(g.N()) * p.HubFraction)
	if h < 1 {
		h = 1
	}
	m := int(float64(g.N()) * p.RankFraction)
	if m < 1 {
		m = 1
	}
	hubs := hub.Select(g, p.Strategy, h, hub.Options{Seed: p.Seed})
	return ridx.BuildParams{
		Hubs: hubs, M: m, K: p.MaxK,
		Counted: p.Counted, Candidates: p.Candidates,
	}, nil
}

// BuildIndex precomputes a Section-5 index for g: selects H = h·|V| hubs
// with the chosen strategy and runs an M = m·|V| step ranked SSSP from
// each, on all cores (the index is identical for any core count). Attach
// the result to an Engine with SetIndex, or share it between the engines
// of a pool with NewPoolWithIndex, to enable Indexed queries.
func BuildIndex(g *Graph, p IndexParams) (*ConcurrentIndex, error) {
	bp, err := buildParams(g, p)
	if err != nil {
		return nil, err
	}
	return ridx.BuildSharded(g, bp, 0)
}

// ReverseKRanks answers a single reverse k-ranks query with the Dynamic
// engine — the best index-free choice. For query streams, construct an
// Engine (and optionally an Index) once and reuse it.
func ReverseKRanks(g *Graph, q int32, k int) ([]Entry, error) {
	res, err := core.NewEngine(g, core.Options{}).Query(core.Dynamic, q, k)
	if err != nil {
		return nil, err
	}
	return res.Entries, nil
}

// Rank computes Rank(src, dst): 1 plus the number of nodes strictly closer
// to src than dst is (Definition 1; equidistant nodes share a rank). It
// returns RankUnreachable when dst cannot be reached from src.
func Rank(g *Graph, src, dst int32) int32 {
	return rank.Of(sssp.New(g), src, dst)
}

// TopK returns q's k nearest nodes by shortest-path distance, nearest
// first (the classical k-NN query the paper contrasts with).
func TopK(g *Graph, q int32, k int) []Entry {
	res := topk.TopK(g, q, k)
	out := make([]Entry, len(res))
	for i, r := range res {
		out[i] = Entry{Node: r.Node, Rank: int32(i + 1)}
	}
	return out
}

// ReverseTopK returns every node that has q among its k nearest nodes
// (rank <= k), with exact ranks, ordered by (rank, node). Its result size
// is unbounded — the imbalance that motivates reverse k-ranks.
func ReverseTopK(g *Graph, q int32, k int) []Entry {
	return topk.ReverseTopK(g, q, k)
}

// ReverseTopKBichromatic is ReverseTopK under Definitions 3-4: results
// come from the candidate class and ranks count the counted class (nil
// slices admit all nodes). The paper's Figure-5 case study is a reverse
// top-1 query of this form.
func ReverseTopKBichromatic(g *Graph, q int32, k int, candidates, counted []bool) []Entry {
	return topk.ReverseTopKBichromatic(g, q, k, candidates, counted)
}

// Distance returns the shortest-path distance from src to dst; ok is false
// when dst is unreachable.
func Distance(g *Graph, src, dst int32) (float64, bool) {
	return sssp.Distance(sssp.New(g), src, dst)
}
