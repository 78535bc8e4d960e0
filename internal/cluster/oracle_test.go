package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
	tg "rkranks/internal/testgraphs"
)

// TestShardedOracle compares the merged answers of in-process clusters
// with single-node Naive on random queries and every k up to the index K.
// Every shard call carries the merged k, so shards bound each other's
// candidates, prune on the shadow heap and share one learning index; the
// merge must still be the canonical top k. The graphs cover undirected,
// directed, bichromatic, candidate-restricted and zero-weight-tied
// shapes.
func TestShardedOracle(t *testing.T) {
	const maxK = 20
	road, stores := gen.RoadNetwork(gen.RoadNetworkParams{Rows: 15, Cols: 15, KeepProb: 0.3, Stores: 25, Seed: 1})
	candidates, counted := gen.StoreClasses(road.N(), stores)
	// A candidate class of every third node, every node counted: the
	// class matters to the shadow heap, and Lemma 4 holds under it.
	dblp := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 250, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 11})
	third := make([]bool, dblp.N())
	for v := range third {
		third[v] = v%3 == 0
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		opts    core.Options
		queries []int32 // query pool; nil draws from every node
	}{
		{name: "dblp", g: dblp},
		{name: "dblp-third", g: dblp, opts: core.Options{Candidates: third}},
		{name: "epinions", g: gen.EpinionsLike(gen.EpinionsLikeParams{Nodes: 250, OutPerNode: 3, BackEdgeProb: 0.3, Seed: 12})},
		{name: "road-bichromatic", g: road, opts: core.Options{Candidates: candidates, Counted: counted}, queries: stores},
		{name: "tiedgrid", g: tg.TiedGrid(12, 12)},
	}
	queries, ks := 8, 4
	if testing.Short() {
		queries, ks = 4, 2
	}
	rng := rand.New(rand.NewSource(1))
	checks := 0
	for _, tc := range cases {
		g := tc.g
		labels, err := hub.BuildLabels(g, hub.Order(g, hub.DegreeFirst, g.N()/4, hub.Options{Seed: 3}), 2)
		if err != nil {
			t.Fatal(err)
		}
		opts := tc.opts
		opts.Labels = labels
		// The canonical top k is a prefix of the canonical top maxK.
		naive := core.NewEngine(g, tc.opts)
		qs := make([]int32, queries)
		oracle := map[int32][]rank.Entry{}
		for i := range qs {
			if tc.queries != nil {
				qs[i] = tc.queries[rng.Intn(len(tc.queries))]
			} else {
				qs[i] = int32(rng.Intn(g.N()))
			}
			res, err := naive.Query(core.Naive, qs[i], maxK)
			if err != nil {
				t.Fatal(err)
			}
			oracle[qs[i]] = res.Entries
		}
		want := func(q int32, k int) string {
			return fmt.Sprint(oracle[q][:min(k, len(oracle[q]))])
		}
		for _, shards := range []int{2, 3, 4} {
			for _, part := range []Partitioner{Modulo{}, DegreeBalanced{}} {
				ix, err := ridx.BuildSharded(g, ridx.BuildParams{
					Hubs:       hub.Select(g, hub.DegreeFirst, g.N()/10, hub.Options{Seed: 3}),
					M:          g.N() / 5,
					K:          maxK,
					Counted:    tc.opts.Counted,
					Candidates: tc.opts.Candidates,
				}, 0)
				if err != nil {
					t.Fatal(err)
				}
				coord, err := NewLocal(g, opts, part, shards, 1, 1, ix, Config{})
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range []core.Algorithm{core.Dynamic, core.Indexed, core.HubLabel} {
					label := fmt.Sprintf("%s %s/%d %v", tc.name, part.Name(), shards, a)
					for _, q := range qs {
						for j := 0; j < ks; j++ {
							k := 1 + rng.Intn(maxK)
							res, err := coord.Query(a, q, k)
							if err != nil {
								t.Fatalf("%s q=%d k=%d: %v", label, q, k, err)
							}
							if got := fmt.Sprint(res.Entries); got != want(q, k) {
								t.Fatalf("%s q=%d k=%d: merged %s, naive %s", label, q, k, got, want(q, k))
							}
							checks++
						}
					}
					// The batch scatter carries the merged k too.
					k := 1 + rng.Intn(maxK)
					results, err := coord.QueryMany(a, qs, k)
					if err != nil {
						t.Fatalf("%s batch k=%d: %v", label, k, err)
					}
					for i, res := range results {
						if got := fmt.Sprint(res.Entries); got != want(qs[i], k) {
							t.Fatalf("%s batch q=%d k=%d: merged %s, naive %s", label, qs[i], k, got, want(qs[i], k))
						}
						checks++
					}
				}
				if err := coord.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	t.Logf("%d merged answers matched single-node Naive", checks)
}

// mergedKRecorder wraps a backend and records the merged k of every call.
type mergedKRecorder struct {
	ShardBackend
	mu   sync.Mutex
	seen []int
}

func (r *mergedKRecorder) record(ctx context.Context) {
	r.mu.Lock()
	r.seen = append(r.seen, core.MergedK(ctx))
	r.mu.Unlock()
}

func (r *mergedKRecorder) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	r.record(ctx)
	return r.ShardBackend.QueryContext(ctx, a, q, k)
}

func (r *mergedKRecorder) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	r.record(ctx)
	return r.ShardBackend.QueryManyContext(ctx, a, queries, k)
}

// TestShardCallsCarryMergedK: a query and a batch each make exactly one
// call per shard, and every call for k carries k as the merged k;
// NaiveGather's calls carry none, so its shards return their canonical
// top k.
func TestShardCallsCarryMergedK(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 200, AttachPerNode: 4, Seed: 5})
	const k = 10
	for _, naive := range []bool{false, true} {
		var recs []*mergedKRecorder
		var backends []ShardBackend
		for _, b := range localShards(t, g, 3) {
			r := &mergedKRecorder{ShardBackend: b}
			recs = append(recs, r)
			backends = append(backends, r)
		}
		coord, err := New(backends, Config{NaiveGather: naive})
		if err != nil {
			t.Fatal(err)
		}
		want := k
		if naive {
			want = 0
		}
		check := func(what string, calls int) {
			t.Helper()
			for i, r := range recs {
				if len(r.seen) != calls {
					t.Fatalf("naive=%v shard %d: %d calls after the %s, want %d", naive, i, len(r.seen), what, calls)
				}
				for _, mk := range r.seen {
					if mk != want {
						t.Fatalf("naive=%v shard %d: call carried merged k %d, want %d", naive, i, mk, want)
					}
				}
			}
		}
		if _, err := coord.QueryContext(core.WithMergedK(context.Background(), 50), core.Dynamic, 7, k); err != nil {
			t.Fatal(err)
		}
		check("query", 1)
		if _, err := coord.QueryMany(core.Dynamic, []int32{3, 8, 21}, k); err != nil {
			t.Fatal(err)
		}
		check("batch", 2)
	}
}
