package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rkranks/internal/cache"
	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	tg "rkranks/internal/testgraphs"
	"rkranks/internal/workload"
)

// QueryManyContext lets the failure injection cover batch RPCs too (embedding
// alone would bypass fail()).
func (f *flakyShard) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	if f.fail() {
		return nil, errors.New("injected shard failure")
	}
	return f.ShardBackend.QueryManyContext(ctx, a, queries, k)
}

// TestBatchScatterEquivalence is the acceptance-criteria matrix for the
// batch path: for all four algorithms across 1/2/4/8 shards, a batch
// scatter — uncached, and cache-wrapped on both a cold and a warm pass —
// answers byte-identically to the per-query scatter and to a single-node
// pool, node ids included.
func TestBatchScatterEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *graph.Graph
	}{
		{"tie-undirected", func() *graph.Graph { return tieHeavy(5, false, 60) }},
		{"dblp", func() *graph.Graph {
			return gen.DBLPLike(gen.DBLPLikeParams{Nodes: 250, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 7})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			maxK := 16
			single, err := core.NewPoolWithIndex(g, core.Options{}, 2, sharedIndex(t, g, maxK))
			if err != nil {
				t.Fatal(err)
			}
			queries := workload.Random(g, 8, 19)
			for _, shards := range []int{1, 2, 4, 8} {
				batched, err := NewLocal(g, core.Options{}, Modulo{}, shards, 1, 2, sharedIndex(t, g, maxK), Config{})
				if err != nil {
					t.Fatal(err)
				}
				perQuery, err := NewLocal(g, core.Options{}, Modulo{}, shards, 1, 2, sharedIndex(t, g, maxK), Config{PerQueryScatter: true})
				if err != nil {
					t.Fatal(err)
				}
				cached, err := cache.NewBackend(batched, cache.Config{MaxBytes: 4 << 20})
				if err != nil {
					t.Fatal(err)
				}
				for _, algo := range allAlgorithms {
					for _, k := range []int{1, 3, 10} {
						want := make([]*core.Result, len(queries))
						for i, q := range queries {
							if want[i], err = single.Query(algo, q, k); err != nil {
								t.Fatal(err)
							}
						}
						batchRes, err := batched.QueryMany(algo, queries, k)
						if err != nil {
							t.Fatalf("batch shards=%d %v k=%d: %v", shards, algo, k, err)
						}
						pqRes, err := perQuery.QueryMany(algo, queries, k)
						if err != nil {
							t.Fatal(err)
						}
						coldRes, err := cached.QueryManyContext(context.Background(), algo, queries, k)
						if err != nil {
							t.Fatal(err)
						}
						warmRes, err := cached.QueryManyContext(context.Background(), algo, queries, k)
						if err != nil {
							t.Fatal(err)
						}
						for i := range queries {
							for variant, got := range map[string]*core.Result{
								"batch": batchRes[i], "per-query": pqRes[i],
								"cached-cold": coldRes[i], "cached-warm": warmRes[i],
							} {
								if !entriesEqual(got.Entries, want[i].Entries) {
									t.Fatalf("%s shards=%d %v q=%d k=%d diverged:\n got    %v\n single %v",
										variant, shards, algo, queries[i], k, got.Entries, want[i].Entries)
								}
								if got.Partial {
									t.Fatalf("healthy cluster flagged %s result partial", variant)
								}
							}
						}
					}
				}
				if err := batched.Close(); err != nil {
					t.Fatal(err)
				}
				_ = perQuery.Close()
			}
		})
	}
}

// TestBatchScatterEvolvingSharedIndex interleaves cached batches,
// uncached batches, and skewed extra traffic over DIFFERENTLY evolving
// shared indexes; canonical results must stay byte-identical throughout,
// so the cache (keyed on an unchanged generation) is never wrong to hit.
func TestBatchScatterEvolvingSharedIndex(t *testing.T) {
	g := tieHeavy(21, false, 80)
	maxK := 16
	single, err := core.NewPoolWithIndex(g, core.Options{}, 2, sharedIndex(t, g, maxK))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewLocal(g, core.Options{}, Modulo{}, 4, 1, 2, sharedIndex(t, g, maxK), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := cache.NewBackend(coord, cache.Config{MaxBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 25; round++ {
		// Skew the cluster index's evolution: traffic only it sees.
		if _, err := coord.Query(core.Indexed, int32(rng.Intn(g.N())), 1+rng.Intn(5)); err != nil {
			t.Fatal(err)
		}
		batch := make([]int32, 6)
		for i := range batch {
			batch[i] = int32(rng.Intn(g.N()))
		}
		k := 1 + rng.Intn(maxK-1)
		got, err := cached.QueryManyContext(context.Background(), core.Indexed, batch, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range batch {
			want, err := single.Query(core.Indexed, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !entriesEqual(got[i].Entries, want.Entries) {
				t.Fatalf("round %d q=%d k=%d diverged as indexes evolved:\n cached cluster %v\n single         %v",
					round, q, k, got[i].Entries, want.Entries)
			}
		}
	}
}

// TestBatchOneShardTripped: a batch over a cluster with one dead shard
// fails with the typed 503 in strict mode and degrades to Partial
// results (correct for the healthy candidate classes) otherwise.
func TestBatchOneShardTripped(t *testing.T) {
	g := tg.Path(30)
	const dead = 1
	queries := []int32{0, 3, 9}

	strict, err := New(localShardsWithDead(t, g, 3, dead), Config{StrictConsistency: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strict.QueryMany(core.Dynamic, queries, 5); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("strict batch error = %v, want ErrShardUnavailable", err)
	}

	degraded, err := New(localShardsWithDead(t, g, 3, dead), Config{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := degraded.QueryMany(core.Dynamic, queries, 5)
	if err != nil {
		t.Fatalf("degraded batch refused: %v", err)
	}
	for i, res := range results {
		if !res.Partial {
			t.Errorf("degraded result %d not flagged Partial", i)
		}
		for _, e := range res.Entries {
			if int(e.Node)%3 == dead {
				t.Errorf("result %d entry %v belongs to the dead shard", i, e)
			}
		}
	}
}

// TestBatchRPCCounters: a batch costs exactly ONE RPC per shard, and the
// coordinator's counters say so.
func TestBatchRPCCounters(t *testing.T) {
	g := tg.Path(40)
	const shards, k = 2, 6
	coord, err := NewLocal(g, core.Options{}, Modulo{}, shards, 1, 1, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []int32{1, 5, 9, 13, 17}
	if _, err := coord.QueryMany(core.Dynamic, queries, k); err != nil {
		t.Fatal(err)
	}
	snap := coord.ClusterSnapshot().(*Snapshot)
	if snap.Batches != 1 {
		t.Errorf("batches = %d, want 1", snap.Batches)
	}
	if snap.BatchRPCs != shards {
		t.Errorf("batch RPCs = %d, want exactly %d (one per shard)", snap.BatchRPCs, shards)
	}
	if snap.BatchQueries != int64(len(queries)) {
		t.Errorf("batch queries = %d, want %d", snap.BatchQueries, len(queries))
	}
	for _, s := range snap.Shards {
		if s.Queries != 1 {
			t.Errorf("shard %d served %d RPCs, want 1", s.ID, s.Queries)
		}
	}
}

// TestRemoteBatchScatter: the batch path over real HTTP shard backends —
// one /v1/batch per shard — stays byte-identical to single-node.
func TestRemoteBatchScatter(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 200, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 3})
	const shards = 2
	backends := make([]ShardBackend, shards)
	for i := 0; i < shards; i++ {
		ts := bootShardServer(t, g, Modulo{}, shards, i)
		rs, err := NewRemoteShard(context.Background(), ts.URL, RemoteExpect{
			Nodes: g.N(), Shard: fmt.Sprintf("%d/%d", i, shards), Partitioner: "modulo",
		})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = rs
	}
	coord, err := New(backends, Config{})
	if err != nil {
		t.Fatal(err)
	}
	single := core.NewPool(g, core.Options{}, 2)
	queries := workload.Random(g, 6, 7)
	results, err := coord.QueryMany(core.Dynamic, queries, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := single.Query(core.Dynamic, q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !entriesEqual(results[i].Entries, want.Entries) {
			t.Fatalf("q=%d diverged over HTTP batch scatter:\n cluster %v\n single  %v", q, results[i].Entries, want.Entries)
		}
	}
	snap := coord.ClusterSnapshot().(*Snapshot)
	if snap.Batches != 1 || snap.BatchRPCs != shards {
		t.Errorf("batch counters off: %+v", snap)
	}
}

// TestCoordinatorGeneration: the cache-key generation probe moves when
// any local shard's shared index is invalidated, and reports the common
// (maximum) shard generation rather than a sum — so it agrees with the
// generation mutation fan-outs report.
func TestCoordinatorGeneration(t *testing.T) {
	g := tg.Path(20)
	ix := sharedIndex(t, g, 8)
	coord, err := NewLocal(g, core.Options{}, Modulo{}, 2, 1, 1, ix, Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := coord.Generation()
	ix.BumpGeneration()
	after := coord.Generation()
	if after <= before {
		t.Errorf("generation did not advance: %d -> %d", before, after)
	}
	// Both shards share one index: its generation IS the cluster's.
	if after != ix.Generation() {
		t.Errorf("coordinator generation %d, shared index at %d", after, ix.Generation())
	}
}
