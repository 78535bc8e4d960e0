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
// the whole graph. Its method set is server.Backend's (and cache.Target's),
// so a *core.Pool, *live.Store, *cache.Backend, RemoteShard or ReplicaGroup
// serves as a shard or replica member as it stands. The optional
// capabilities (Generation, HubLabeled, HubLabelBytes, Mutate) are probed
// through decorator chains (core.Probe), so a *cache.Backend member
// exposes its target's. Implementations must be safe for concurrent
// use — the coordinator scatters to every shard in parallel and may
// overlap queries. Every implementation passes ctx down to the engines,
// since the merged k a coordinator's shard calls carry rides it
// (core.WithMergedK).
type ShardBackend interface {
	// QueryContext returns the shard-local top-k. Without a merged k on
	// ctx it is the canonical top-k, and a result shorter than k means the
	// shard's candidate class is exhausted. With a merged k it may omit
	// candidates that cannot reach the merged top k; with the merged k
	// equal to k, as the coordinator sends, it holds every one of the
	// shard's candidates that is in the merged top k.
	QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error)
	// QueryManyContext answers many queries in ONE round trip — one result
	// per query, in input order, each with the same semantics as
	// QueryContext. The coordinator's batch scatter leans on it to spend
	// one RPC per shard per /v1/batch instead of one per query.
	QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error)
	// Size hints how many queries the backend can serve concurrently
	// (engine slots); the coordinator budgets batch fan-out with it.
	Size() int
	// Indexed reports whether the backend serves Indexed queries.
	Indexed() bool
}

// localPool builds the shard'th of shards in-process members over g: an
// engine pool whose candidate class is the partitioner's mask for that
// shard, intersected with opts.Candidates when the caller is already
// bichromatic; opts.Candidates itself becomes the cluster's class
// (core.Options.ClusterCandidates) that merged-k queries bound. ix, when
// non-nil, must cover g; passing the SAME index to every local pool is
// both safe and desirable — all shards then feed one set of dictionaries,
// exactly like a single-node pool.
func localPool(g *graph.Graph, opts core.Options, part Partitioner, shards, shard, poolSize int, ix ridx.Index) (*core.Pool, error) {
	mask, err := ShardMask(g, part, shards, shard, opts.Candidates)
	if err != nil {
		return nil, err
	}
	opts.ClusterCandidates = opts.Candidates
	opts.Candidates = mask
	if ix != nil {
		return core.NewPoolWithIndex(g, opts, poolSize, ix)
	}
	return core.NewPool(g, opts, poolSize), nil
}

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

// QueryContext implements ShardBackend, mapping wire errors back to the
// typed errors the engine layer would have returned in process:
// client-fault responses to the core.ErrInvalidArgument family, deadline
// expiry to context.DeadlineExceeded. 429s keep their api.StatusError
// (with the parsed Retry-After) so the coordinator can aggregate overload
// hints; everything else is a shard availability failure.
func (s *RemoteShard) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	resp, err := s.client.Query(ctx, api.AlgorithmOf(a), q, k, 0)
	if err != nil {
		return nil, s.mapError(err)
	}
	return wireResult(resp, q, k), nil
}

// mapError translates a wire error into the typed error the engine layer
// would have returned in process (see QueryContext's contract).
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

// QueryManyContext implements ShardBackend with a single /v1/batch round
// trip, the wire counterpart of the coordinator's batch scatter. Errors
// map exactly like QueryContext's.
func (s *RemoteShard) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
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

// liveStore builds the shard'th of shards live members over g: the
// mutable counterpart of localPool. cfg is the member's live
// configuration; its CandidateFunc is overwritten with the partitioner's
// mask, recomputed on every topology rebuild so vertices added after boot
// still land in exactly one shard's candidate class (cfg.Options.Candidates,
// when set, restricts it, bichromatic-style, and is extended with true for
// post-boot vertices). cfg.Options.Candidates also becomes the cluster's
// class (core.Options.ClusterCandidates), which the store extends the same
// way on every rebuild. Unlike local pools, live members do NOT share a
// dynamic index — each store owns its index lifecycle (a rebuild swaps in
// a fresh one per store).
func liveStore(g *graph.Graph, cfg live.Config, part Partitioner, shards, shard int) (*live.Store, error) {
	restrict := cfg.Options.Candidates
	cfg.Options.ClusterCandidates = restrict
	cfg.CandidateFunc = func(g2 *graph.Graph) ([]bool, error) {
		return ShardMask(g2, part, shards, shard, growMask(restrict, g2.N()))
	}
	// Every member needs a PRIVATE graph: weight patches rewrite the arc
	// slabs in place under the owning store's epoch barrier, which cannot
	// hold out another store's readers.
	return live.NewStore(g.Clone(), cfg)
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
