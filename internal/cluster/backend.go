package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/live"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
)

// A ShardBackend answers reverse k-ranks queries for one vertex shard: the
// canonical top-k among the shard's candidates, with ranks counted over
// the whole graph. Implementations must be safe for concurrent use — the
// coordinator scatters to every shard in parallel and may overlap queries.
// Every implementation passes ctx down to the engines, since the merged k
// a coordinator's shard calls carry rides it (core.WithMergedK).
type ShardBackend interface {
	// Query returns the shard-local top-k. Without a merged k on ctx it
	// is the canonical top-k, and a result shorter than k means the
	// shard's candidate class is exhausted. With a merged k it may omit
	// candidates that cannot reach the merged top k; with the merged k
	// equal to k, as the coordinator sends, it holds every one of the
	// shard's candidates that is in the merged top k.
	Query(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error)
	// QueryBatch answers many queries in ONE round trip — one result per
	// query, in input order, each with the same semantics as Query. The
	// coordinator's batch scatter leans on it to spend one RPC per shard
	// per /v1/batch instead of one per query.
	QueryBatch(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error)
	// Size hints how many queries the backend can serve concurrently
	// (engine slots); the coordinator budgets batch fan-out with it.
	Size() int
	// Indexed reports whether the backend serves Indexed queries.
	Indexed() bool
	// Describe labels the backend in logs and ClusterSnapshot.
	Describe() string
	// Close releases backend resources.
	Close() error
}

// LocalShard serves a shard from an in-process engine pool whose
// Candidates mask restricts results to the shard's vertices.
type LocalShard struct {
	pool *core.Pool
	desc string
}

// NewLocalShard builds the shard'th of shards in-process backends over g:
// an engine pool whose candidate class is the partitioner's mask for that
// shard, intersected with opts.Candidates when the caller is already
// bichromatic; opts.Candidates itself becomes the cluster's class
// (core.Options.ClusterCandidates) that merged-k queries bound. ix, when
// non-nil, must cover g; passing the SAME index to every local shard is
// both safe and desirable — all shards then feed one set of dictionaries,
// exactly like a single-node pool.
func NewLocalShard(g *graph.Graph, opts core.Options, part Partitioner, shards, shard, poolSize int, ix ridx.Index) (*LocalShard, error) {
	mask, err := ShardMask(g, part, shards, shard, opts.Candidates)
	if err != nil {
		return nil, err
	}
	opts.ClusterCandidates = opts.Candidates
	opts.Candidates = mask
	var pool *core.Pool
	if ix != nil {
		if pool, err = core.NewPoolWithIndex(g, opts, poolSize, ix); err != nil {
			return nil, err
		}
	} else {
		pool = core.NewPool(g, opts, poolSize)
	}
	return &LocalShard{
		pool: pool,
		desc: fmt.Sprintf("local[%d/%d %s]", shard, shards, part.Name()),
	}, nil
}

// Pool exposes the shard's pool (tests and occupancy introspection).
func (s *LocalShard) Pool() *core.Pool { return s.pool }

// Query implements ShardBackend.
func (s *LocalShard) Query(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	return s.pool.QueryContext(ctx, a, q, k)
}

// QueryBatch implements ShardBackend; concurrency is bounded by the
// shard's pool size.
func (s *LocalShard) QueryBatch(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	return s.pool.QueryManyContext(ctx, a, queries, k)
}

// Generation exposes the shard pool's answer-set generation for response
// caches keyed on it (see core.Pool.Generation).
func (s *LocalShard) Generation() uint64 { return s.pool.Generation() }

// Size implements ShardBackend.
func (s *LocalShard) Size() int { return s.pool.Size() }

// Indexed implements ShardBackend.
func (s *LocalShard) Indexed() bool { return s.pool.Indexed() }

// HubLabeled reports whether the shard's pool serves HubLabel queries
// (the coordinator's capability probe; see Coordinator.HubLabeled).
func (s *LocalShard) HubLabeled() bool { return s.pool.HubLabeled() }

// HubLabelBytes reports the shard labeling's memory footprint for the
// coordinator's sum.
func (s *LocalShard) HubLabelBytes() int64 { return s.pool.HubLabelBytes() }

// Describe implements ShardBackend.
func (s *LocalShard) Describe() string { return s.desc }

// Close implements ShardBackend.
func (s *LocalShard) Close() error { return nil }

// RemoteShard serves a shard from a remote rkserve instance (booted with
// -shard i/P so its pool's candidate class is that shard's mask) through
// the /v1/query wire contract.
type RemoteShard struct {
	client     *api.Client
	url        string
	size       int
	indexed    bool
	hubLabeled bool
}

// RemoteExpect is what a coordinator requires of a remote backend before
// trusting its answers in a merge. Zero-valued fields are not checked.
type RemoteExpect struct {
	// Nodes is the graph's node count: shards booted on different graphs
	// are the most common cluster misconfiguration.
	Nodes int
	// Shard is the ownership spec "i/P" the backend must have been booted
	// with (rkserve -shard, published on its /healthz). Merging assumes
	// DISJOINT candidate classes, so a duplicated, swapped, or full-graph
	// backend would answer silently wrong — this check refuses it at
	// startup instead.
	Shard string
	// Partitioner is the partitioner name the shard masks must come from;
	// only meaningful together with Shard.
	Partitioner string
}

// NewRemoteShard dials url's /healthz to learn the backend's capacity and
// index state, and verifies it against expect.
func NewRemoteShard(ctx context.Context, url string, expect RemoteExpect) (*RemoteShard, error) {
	c := api.NewClient(url)
	doc, err := c.Health(ctx)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %s: %w", url, err)
	}
	size := 1
	if v, ok := doc["pool_size"].(float64); ok && v >= 1 {
		size = int(v)
	}
	indexed, _ := doc["indexed"].(bool)
	hubLabeled, _ := doc["hub_labeled"].(bool)
	if expect.Nodes > 0 {
		if v, ok := doc["graph_nodes"].(float64); !ok || int(v) != expect.Nodes {
			return nil, fmt.Errorf("cluster: shard %s serves a %v-node graph, coordinator expects %d", url, doc["graph_nodes"], expect.Nodes)
		}
	}
	if expect.Shard != "" {
		if got, _ := doc["shard"].(string); got != expect.Shard {
			return nil, fmt.Errorf("cluster: backend %s publishes shard spec %q, coordinator expects %q (boot it with rkserve -shard %s; a duplicate or full-graph backend would merge silently wrong)",
				url, got, expect.Shard, expect.Shard)
		}
		if expect.Partitioner != "" {
			if got, _ := doc["shard_partitioner"].(string); got != expect.Partitioner {
				return nil, fmt.Errorf("cluster: backend %s partitions with %q, coordinator expects %q: shard ownership would not line up",
					url, doc["shard_partitioner"], expect.Partitioner)
			}
		}
	}
	return &RemoteShard{client: c, url: url, size: size, indexed: indexed, hubLabeled: hubLabeled}, nil
}

// Query implements ShardBackend, mapping wire errors back to the typed
// errors the engine layer would have returned in process: client-fault
// responses to the core.ErrInvalidArgument family, deadline expiry to
// context.DeadlineExceeded. 429s keep their api.StatusError (with the
// parsed Retry-After) so the coordinator can aggregate overload hints;
// everything else is a shard availability failure.
func (s *RemoteShard) Query(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	resp, err := s.client.Query(ctx, api.AlgorithmOf(a), q, k, 0)
	if err != nil {
		return nil, s.mapError(err)
	}
	return wireResult(resp, q, k), nil
}

// mapError translates a wire error into the typed error the engine layer
// would have returned in process (see Query's contract).
func (s *RemoteShard) mapError(err error) error {
	var se *api.StatusError
	if errors.As(err, &se) {
		switch se.Status {
		case http.StatusBadRequest:
			return fmt.Errorf("cluster: shard %s rejected the request: %s: %w", s.url, se.Msg, core.ErrInvalidArgument)
		case http.StatusGatewayTimeout:
			return fmt.Errorf("cluster: shard %s: %s: %w", s.url, se.Msg, context.DeadlineExceeded)
		}
	}
	return err
}

// wireResult rebuilds a core.Result from its wire form, including the
// generation stamp the coordinator's merge-consistency check compares.
func wireResult(resp *api.QueryResponse, q int32, k int) *core.Result {
	entries := make([]rank.Entry, len(resp.Entries))
	for i, e := range resp.Entries {
		entries[i] = rank.Entry{Node: e.Node, Rank: e.Rank}
	}
	res := &core.Result{Query: q, K: k, Entries: entries, Partial: resp.Partial, Generation: resp.Generation}
	if resp.Stats != nil {
		res.Stats = *resp.Stats
	}
	return res
}

// QueryBatch implements ShardBackend with a single /v1/batch round trip,
// the wire counterpart of the coordinator's batch scatter. Errors map
// exactly like Query's.
func (s *RemoteShard) QueryBatch(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	resp, err := s.client.Batch(ctx, api.AlgorithmOf(a), queries, k, 0)
	if err != nil {
		return nil, s.mapError(err)
	}
	if len(resp.Results) != len(queries) {
		return nil, fmt.Errorf("cluster: shard %s answered %d of %d batch queries", s.url, len(resp.Results), len(queries))
	}
	out := make([]*core.Result, len(queries))
	for i := range resp.Results {
		out[i] = wireResult(&resp.Results[i], queries[i], k)
	}
	return out, nil
}

// Size implements ShardBackend.
func (s *RemoteShard) Size() int { return s.size }

// Indexed implements ShardBackend.
func (s *RemoteShard) Indexed() bool { return s.indexed }

// HubLabeled reports whether the remote backend published hub-label
// capability on its /healthz (rkserve booted with -hub-load or -hub-count).
func (s *RemoteShard) HubLabeled() bool { return s.hubLabeled }

// Describe implements ShardBackend.
func (s *RemoteShard) Describe() string { return "remote[" + s.url + "]" }

// Close implements ShardBackend.
func (s *RemoteShard) Close() error { return nil }

// Mutate fans one mutation batch to the remote backend's /v1/mutate. A
// 501 means the backend was booted without live mutations; the
// coordinator maps it to ImmutableShardError.
func (s *RemoteShard) Mutate(ctx context.Context, ms []graph.Mutation) (live.MutateInfo, error) {
	resp, err := s.client.Mutate(ctx, ms, 0)
	if err != nil {
		return live.MutateInfo{}, s.mapError(err)
	}
	return live.MutateInfo{
		Applied:    resp.Applied,
		Generation: resp.Generation,
		Rebuilt:    resp.Rebuilt,
		Nodes:      resp.Nodes,
		Edges:      resp.Edges,
	}, nil
}

// ProbeGeneration asks the remote backend its current graph generation
// over /healthz, whose document carries it even while the server drains
// (503). The mutate retry guard uses it to detect a batch the server
// committed even though the response was lost in transit — re-sending
// such a batch would double-apply it.
func (s *RemoteShard) ProbeGeneration(ctx context.Context) (uint64, error) {
	doc, err := s.client.Health(ctx)
	gen, ok := doc["generation"].(float64)
	if !ok {
		if err == nil {
			err = fmt.Errorf("cluster: shard %s reports no generation", s.url)
		}
		return 0, err
	}
	return uint64(gen), nil
}

// LiveShard serves a shard from an in-process live store: the mutable
// counterpart of LocalShard. Its candidate mask is recomputed from the
// partitioner on every topology rebuild, so vertices added after boot
// still land in exactly one shard's candidate class. Unlike LocalShard
// pools, live shards do NOT share a dynamic index — each store owns its
// index lifecycle (a rebuild swaps in a fresh one per shard).
type LiveShard struct {
	store *live.Store
	desc  string
}

// NewLiveShard builds the shard'th of shards live backends over g. cfg is
// the per-shard live configuration; its CandidateFunc is overwritten with
// the partitioner's mask (cfg.Options.Candidates, when set, restricts it,
// bichromatic-style, and is extended with true for post-boot vertices).
// cfg.Options.Candidates also becomes the cluster's class
// (core.Options.ClusterCandidates), which the store extends the same way
// on every rebuild.
func NewLiveShard(g *graph.Graph, cfg live.Config, part Partitioner, shards, shard int) (*LiveShard, error) {
	if part == nil {
		part = Modulo{}
	}
	restrict := cfg.Options.Candidates
	cfg.Options.ClusterCandidates = restrict
	cfg.CandidateFunc = func(g2 *graph.Graph) ([]bool, error) {
		return ShardMask(g2, part, shards, shard, growMask(restrict, g2.N()))
	}
	// Every shard needs a PRIVATE graph: weight patches rewrite the arc
	// slabs in place under the owning store's epoch barrier, which cannot
	// hold out another shard's readers.
	store, err := live.NewStore(g.Clone(), cfg)
	if err != nil {
		return nil, err
	}
	return &LiveShard{
		store: store,
		desc:  fmt.Sprintf("live[%d/%d %s]", shard, shards, part.Name()),
	}, nil
}

// growMask extends a class mask to n nodes, admitting post-boot vertices.
func growMask(mask []bool, n int) []bool {
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

// Store exposes the shard's live store (tests and introspection).
func (s *LiveShard) Store() *live.Store { return s.store }

// Query implements ShardBackend.
func (s *LiveShard) Query(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	return s.store.QueryContext(ctx, a, q, k)
}

// QueryBatch implements ShardBackend.
func (s *LiveShard) QueryBatch(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	return s.store.QueryManyContext(ctx, a, queries, k)
}

// Mutate applies one batch to the shard's store.
func (s *LiveShard) Mutate(ctx context.Context, ms []graph.Mutation) (live.MutateInfo, error) {
	return s.store.Mutate(ctx, ms)
}

// Generation exposes the store's graph generation (cache keying and the
// coordinator's merge-consistency check).
func (s *LiveShard) Generation() uint64 { return s.store.Generation() }

// Size implements ShardBackend.
func (s *LiveShard) Size() int { return s.store.Size() }

// Indexed implements ShardBackend.
func (s *LiveShard) Indexed() bool { return s.store.Indexed() }

// HubLabeled reports whether the shard serves HubLabel queries (possibly
// through the store's Dynamic fallback while relabeling).
func (s *LiveShard) HubLabeled() bool { return s.store.HubLabeled() }

// HubLabelBytes reports the shard labeling's footprint.
func (s *LiveShard) HubLabelBytes() int64 { return s.store.HubLabelBytes() }

// Describe implements ShardBackend.
func (s *LiveShard) Describe() string { return s.desc }

// Close implements ShardBackend.
func (s *LiveShard) Close() error { return nil }

// overloadHint extracts the Retry-After of a shard 429, reporting whether
// err is an overload shed at all.
func overloadHint(err error) (time.Duration, bool) {
	var se *api.StatusError
	if errors.As(err, &se) && se.Status == http.StatusTooManyRequests {
		return se.RetryAfter, true
	}
	return 0, false
}

// immutableRemote reports a 501 from a remote shard's /v1/mutate.
func immutableRemote(err error) bool {
	var se *api.StatusError
	return errors.As(err, &se) && se.Status == http.StatusNotImplemented
}

// fatalQueryError reports errors the coordinator must propagate verbatim
// instead of treating as shard failures: request-validation errors (the
// caller's fault, identical on every shard) and context cancellation or
// expiry (the caller's deadline, not the shard's health).
func fatalQueryError(err error) bool {
	return errors.Is(err, core.ErrInvalidArgument) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
