package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/live"
	"rkranks/internal/obs"
)

// churnGraph builds a parallel-edge-free random graph for mutation tests.
func churnGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(false)
	b.EnsureNodes(n)
	seen := map[[2]int32]bool{}
	for i := 1; i < n; i++ {
		for tries := 0; tries < 3; tries++ {
			u, v := int32(i), int32(rng.Intn(i))
			k := [2]int32{v, u}
			if seen[k] {
				continue
			}
			seen[k] = true
			b.MustAddEdge(u, v, 0.25+rng.Float64()*4)
			if tries == 0 && rng.Intn(2) == 1 {
				continue
			}
			break
		}
	}
	return b.Finalize()
}

// TestLocalLiveEquivalence: a live cluster answers byte-identically to a
// single-node pool before any mutation, across shard counts.
func TestLocalLiveEquivalence(t *testing.T) {
	g := churnGraph(40, 3)
	single := core.NewPool(g, core.Options{}, 2)
	for _, shards := range []int{1, 2, 4} {
		coord, err := NewLocalLive(g, live.Config{PoolSize: 1}, 0, Modulo{}, shards, 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for q := int32(0); q < 40; q += 5 {
			want, err := single.Query(core.Dynamic, q, 6)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.Query(core.Dynamic, q, 6)
			if err != nil {
				t.Fatalf("shards=%d q=%d: %v", shards, q, err)
			}
			if !entriesEqual(got.Entries, want.Entries) {
				t.Fatalf("shards=%d q=%d: %v vs single %v", shards, q, got.Entries, want.Entries)
			}
			if got.Generation != 1 {
				t.Fatalf("shards=%d q=%d: generation %d, want 1", shards, q, got.Generation)
			}
		}
		coord.Close()
	}
}

// TestLiveClusterLockstep: a mutation fan-out leaves every shard at the
// same generation, and the coordinator reports it.
func TestLiveClusterLockstep(t *testing.T) {
	g := churnGraph(30, 5)
	om := obs.NewMetrics(nil)
	coord, err := NewLocalLive(g, live.Config{PoolSize: 1, Metrics: om}, 0, Modulo{}, 4, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx := context.Background()
	var edge graph.Edge
	g.Edges(func(e graph.Edge) bool { edge = e; return false })

	for i := 0; i < 3; i++ {
		info, err := coord.Mutate(ctx, []graph.Mutation{
			graph.SetWeight(edge.From, edge.To, float64(i+2)),
		})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		want := uint64(2 + i)
		if info.Generation != want {
			t.Fatalf("batch %d: generation %d, want %d", i, info.Generation, want)
		}
		for s, b := range coord.backends {
			gp := b.(interface{ Generation() uint64 })
			if gp.Generation() != want {
				t.Fatalf("batch %d: shard %d at generation %d, want %d", i, s, gp.Generation(), want)
			}
		}
		if coord.Generation() != want {
			t.Fatalf("batch %d: coordinator reports %d, want %d", i, coord.Generation(), want)
		}
	}
	// The four shard stores count into one catalog.
	if got := om.MutationBatches.Value(); got != 4*3 {
		t.Fatalf("mutation batches counted %d, want %d", got, 4*3)
	}

	// Validation failures reject the whole fan-out before touching any shard.
	if _, err := coord.Mutate(ctx, []graph.Mutation{graph.InsertEdge(0, 999, 1)}); !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("invalid fan-out: %v", err)
	}
	if coord.Generation() != 4 {
		t.Fatalf("rejected fan-out moved the generation to %d", coord.Generation())
	}
}

// TestLiveClusterChurnNeverMixesGenerations is the mid-churn consistency
// contract: while mutation batches land concurrently with queries, every
// successful query's entries must be EXACTLY the answer for the single
// generation it is stamped with — never a merge of two. Observations are
// recorded during churn and verified afterwards against per-generation
// snapshot graphs.
func TestLiveClusterChurnNeverMixesGenerations(t *testing.T) {
	const n, k = 36, 4
	g := churnGraph(n, 11)
	coord, err := NewLocalLive(g, live.Config{PoolSize: 1}, 0, Modulo{}, 4, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()

	// Per-generation snapshots, maintained by the mutator and read only
	// after the churn stops.
	snapshots := map[uint64]*graph.Graph{1: g}
	es := graph.NewEdgeStore(g)

	var pairs [][2]int32
	g.Edges(func(e graph.Edge) bool {
		pairs = append(pairs, [2]int32{e.From, e.To})
		return true
	})

	var stop atomic.Bool
	var wg sync.WaitGroup
	observations := make([][]*core.Result, 3)
	queried := make([][]int32, 3)
	errs := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + r)))
			for !stop.Load() {
				q := int32(rng.Intn(n))
				res, err := coord.QueryContext(ctx, core.Dynamic, q, k)
				if err != nil {
					var gs *GenerationSkewError
					if errors.As(err, &gs) {
						continue // legitimate under heavy churn: retries exhausted
					}
					errs <- err
					return
				}
				observations[r] = append(observations[r], res)
				queried[r] = append(queried[r], q)
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(99))
	for batch := 0; batch < 15; batch++ {
		var ms []graph.Mutation
		if batch%3 == 2 {
			// Topology change: toggle a fresh pair (rebuild path).
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			m := graph.InsertEdge(u, v, 1.5)
			if err := es.Clone().Apply(m); err != nil {
				m = graph.DeleteEdge(u, v)
				if err := es.Clone().Apply(m); err != nil {
					continue
				}
			}
			ms = []graph.Mutation{m}
		} else {
			p := pairs[rng.Intn(len(pairs))]
			ms = []graph.Mutation{graph.SetWeight(p[0], p[1], 0.25+rng.Float64()*4)}
		}
		info, err := coord.Mutate(ctx, ms)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for _, m := range ms {
			if err := es.Apply(m); err != nil {
				t.Fatalf("mirror apply: %v", err)
			}
		}
		snapshots[info.Generation] = es.Build()
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Verify every observation against its generation's snapshot.
	verified := 0
	oracles := map[uint64]*core.Engine{}
	for r := range observations {
		var lastGen uint64
		for i, res := range observations[r] {
			if res.Generation < lastGen {
				t.Fatalf("reader %d: generation moved backwards %d -> %d", r, lastGen, res.Generation)
			}
			lastGen = res.Generation
			snap, ok := snapshots[res.Generation]
			if !ok {
				t.Fatalf("reader %d: result stamped with unknown generation %d", r, res.Generation)
			}
			oracle := oracles[res.Generation]
			if oracle == nil {
				oracle = core.NewEngine(snap, core.Options{})
				oracles[res.Generation] = oracle
			}
			want, err := oracle.Query(core.Dynamic, queried[r][i], k)
			if err != nil {
				t.Fatal(err)
			}
			if !entriesEqual(res.Entries, want.Entries) {
				t.Fatalf("reader %d gen %d q=%d: %v, snapshot oracle %v",
					r, res.Generation, queried[r][i], res.Entries, want.Entries)
			}
			verified++
		}
	}
	if verified == 0 {
		t.Fatal("churn produced no successful observations")
	}
}
