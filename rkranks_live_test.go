package rkranks_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rkranks"
)

// mirror tracks the logical edge set a mutation schedule produces, so
// tests can rebuild the expected graph from scratch — an oracle that
// never trusts the live store's own bookkeeping.
type mirror struct {
	n     int
	w     map[[2]int32]float64
	pairs [][2]int32 // insertion-ordered keys of w, for random picks
}

func norm(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func newMirror(g *rkranks.Graph) *mirror {
	m := &mirror{n: g.N(), w: map[[2]int32]float64{}}
	g.Edges(func(e rkranks.Edge) bool {
		m.add(e.From, e.To, e.Weight)
		return true
	})
	return m
}

func (m *mirror) add(u, v int32, w float64) {
	k := norm(u, v)
	if _, ok := m.w[k]; !ok {
		m.pairs = append(m.pairs, k)
	}
	m.w[k] = w
}

func (m *mirror) del(u, v int32) {
	k := norm(u, v)
	delete(m.w, k)
	for i, p := range m.pairs {
		if p == k {
			m.pairs[i] = m.pairs[len(m.pairs)-1]
			m.pairs = m.pairs[:len(m.pairs)-1]
			return
		}
	}
}

// Op discriminators, derived through the public constructors.
var (
	opInsert = rkranks.InsertEdge(0, 1, 1).Op
	opDelete = rkranks.DeleteEdge(0, 1).Op
	opSet    = rkranks.SetWeight(0, 1, 1).Op
	opAdd    = rkranks.AddVertices(1).Op
)

// apply plays one mutation into the mirror (the mutation must be valid).
func (m *mirror) apply(mut rkranks.Mutation) {
	switch mut.Op {
	case opInsert, opSet:
		m.add(mut.U, mut.V, mut.Weight)
	case opDelete:
		m.del(mut.U, mut.V)
	case opAdd:
		c := mut.Count
		if c <= 0 {
			c = 1
		}
		m.n += c
	}
}

// build materializes the mirror as an immutable graph.
func (m *mirror) build() *rkranks.Graph {
	b := rkranks.NewBuilder(false)
	for i := 0; i < m.n; i++ {
		b.AddNode()
	}
	for k, w := range m.w {
		b.MustAddEdge(k[0], k[1], w)
	}
	return b.Finalize()
}

// randomBatch generates a batch of valid mutations against the mirror's
// current state (validity is per-op in application order: the live store
// applies batches sequentially against a clone). weightOnly restricts
// the batch to SetWeight ops, exercising the in-place patch path.
func (m *mirror) randomBatch(rng *rand.Rand, size int, weightOnly bool) []rkranks.Mutation {
	var ms []rkranks.Mutation
	for len(ms) < size {
		var mut rkranks.Mutation
		op := rng.Intn(100)
		switch {
		case weightOnly || op < 40:
			if len(m.pairs) == 0 {
				if weightOnly {
					return ms
				}
				continue
			}
			p := m.pairs[rng.Intn(len(m.pairs))]
			mut = rkranks.SetWeight(p[0], p[1], 0.25+rng.Float64()*4)
		case op < 65:
			u, v := int32(rng.Intn(m.n)), int32(rng.Intn(m.n))
			if _, ok := m.w[norm(u, v)]; ok {
				continue
			}
			mut = rkranks.InsertEdge(u, v, 0.25+rng.Float64()*4)
		case op < 85:
			if len(m.pairs) == 0 {
				continue
			}
			p := m.pairs[rng.Intn(len(m.pairs))]
			mut = rkranks.DeleteEdge(p[0], p[1])
		default:
			mut = rkranks.AddVertices(1 + rng.Intn(2))
		}
		m.apply(mut)
		ms = append(ms, mut)
	}
	return ms
}

// liveTestGraph builds a random connected undirected graph with no
// parallel edges (the mutation API refuses ambiguous pairs).
func liveTestGraph(n int, seed int64) *rkranks.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := rkranks.NewBuilder(false)
	for i := 0; i < n; i++ {
		b.AddNode()
	}
	seen := map[[2]int32]bool{}
	addEdge := func(u, v int32, w float64) {
		k := norm(u, v)
		if seen[k] {
			return
		}
		seen[k] = true
		b.MustAddEdge(u, v, w)
	}
	for i := 1; i < n; i++ {
		addEdge(int32(i), int32(rng.Intn(i)), 0.25+rng.Float64()*4)
		if rng.Intn(2) == 0 {
			addEdge(int32(i), int32(rng.Intn(i)), 0.25+rng.Float64()*4)
		}
	}
	return b.Finalize()
}

func sameEntries(a, b []rkranks.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLiveMutationOracle is the correctness contract of the mutation
// pipeline: after every applied batch, every engine's answers on the
// live backend are byte-identical to a from-scratch build of the mutated
// graph — across random schedules, with an attached index (invalidated
// or replaced under mutation) and hub labels (stale until relabeled).
func TestLiveMutationOracle(t *testing.T) {
	const k = 5
	ctx := context.Background()
	algos := []rkranks.Algorithm{
		rkranks.Naive, rkranks.Static, rkranks.Dynamic, rkranks.Indexed, rkranks.HubLabel,
	}
	for _, seed := range []int64{3, 11, 29} {
		rng := rand.New(rand.NewSource(seed))
		g := liveTestGraph(48, seed)
		m := newMirror(g)

		ix, err := rkranks.BuildIndex(g, rkranks.IndexParams{MaxK: 20})
		if err != nil {
			t.Fatal(err)
		}
		labels, err := rkranks.BuildHubLabels(g, rkranks.HubLabelParams{Strategy: rkranks.DegreeHubs})
		if err != nil {
			t.Fatal(err)
		}
		lb, err := rkranks.NewLiveBackend(g, rkranks.LiveOptions{Options: rkranks.Options{Labels: labels}, Index: ix})
		if err != nil {
			t.Fatal(err)
		}

		gen := uint64(1)
		for batch := 0; batch < 6; batch++ {
			weightOnly := batch%2 == 1
			ms := m.randomBatch(rng, 4+rng.Intn(4), weightOnly)
			if len(ms) == 0 {
				continue
			}
			info, err := lb.Mutate(ctx, ms)
			if err != nil {
				t.Fatalf("seed %d batch %d: mutate: %v", seed, batch, err)
			}
			gen++
			if info.Generation != gen {
				t.Fatalf("seed %d batch %d: generation %d, want %d", seed, batch, info.Generation, gen)
			}
			if weightOnly && info.Rebuilt {
				t.Fatalf("seed %d batch %d: weight-only batch took the rebuild path", seed, batch)
			}
			if info.Nodes != m.n || info.Edges != int64(len(m.w)) {
				t.Fatalf("seed %d batch %d: reported shape (%d,%d), mirror (%d,%d)",
					seed, batch, info.Nodes, info.Edges, m.n, len(m.w))
			}

			// Oracle: a from-scratch engine over the mirrored edge set.
			oracle := rkranks.NewEngine(m.build(), rkranks.Options{})
			for probe := 0; probe < 6; probe++ {
				q := int32(rng.Intn(m.n))
				want, err := oracle.Query(rkranks.Dynamic, q, k)
				if err != nil {
					t.Fatalf("oracle query: %v", err)
				}
				for _, a := range algos {
					got, err := lb.QueryContext(ctx, a, q, k)
					if err != nil {
						t.Fatalf("seed %d batch %d %v q=%d: %v", seed, batch, a, q, err)
					}
					if !sameEntries(got.Entries, want.Entries) {
						t.Fatalf("seed %d batch %d %v q=%d: %v, oracle %v",
							seed, batch, a, q, got.Entries, want.Entries)
					}
					if got.Generation != gen {
						t.Fatalf("seed %d batch %d %v q=%d: stamped generation %d, want %d",
							seed, batch, a, q, got.Generation, gen)
					}
				}
			}

			// After the background relabel completes, HubLabel answers from
			// fresh labels must STILL match the oracle.
			wait, cancel := context.WithTimeout(ctx, 30*time.Second)
			err = lb.AwaitLabels(wait)
			cancel()
			if err != nil {
				t.Fatalf("seed %d batch %d: await labels: %v", seed, batch, err)
			}
			q := int32(rng.Intn(m.n))
			want, _ := oracle.Query(rkranks.Dynamic, q, k)
			got, err := lb.QueryContext(ctx, rkranks.HubLabel, q, k)
			if err != nil {
				t.Fatalf("seed %d batch %d relabeled hublabel: %v", seed, batch, err)
			}
			if !sameEntries(got.Entries, want.Entries) {
				t.Fatalf("seed %d batch %d relabeled hublabel q=%d: %v, oracle %v",
					seed, batch, q, got.Entries, want.Entries)
			}
		}
	}
}

// TestLiveClusterOracle runs the same contract through a live cluster:
// after every mutation fan-out, merged answers equal a from-scratch
// single-node build, across shard counts and with a generation-aware
// response cache on top (whose pre-mutation entries must be orphaned).
func TestLiveClusterOracle(t *testing.T) {
	const k = 5
	ctx := context.Background()
	g := liveTestGraph(64, 17)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, cached := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(100*shards + 7)))
			m := newMirror(g)
			cl, err := rkranks.NewCluster(g, rkranks.Options{}, rkranks.ClusterOptions{
				Shards: shards, Live: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			var backend interface {
				QueryContext(ctx context.Context, a rkranks.Algorithm, q int32, k int) (*rkranks.Result, error)
			} = cl
			if cached {
				cb, err := rkranks.NewCachedBackend(cl, rkranks.CacheOptions{MaxMB: 8})
				if err != nil {
					t.Fatal(err)
				}
				backend = cb
			}

			probes := make([]int32, 6)
			for i := range probes {
				probes[i] = int32(rng.Intn(g.N()))
			}
			// Prime the cache (when present) with pre-mutation answers.
			for _, q := range probes {
				if _, err := backend.QueryContext(ctx, rkranks.Dynamic, q, k); err != nil {
					t.Fatalf("shards=%d cached=%v prime q=%d: %v", shards, cached, q, err)
				}
			}

			for batch := 0; batch < 3; batch++ {
				ms := m.randomBatch(rng, 5, batch == 1)
				if len(ms) == 0 {
					continue
				}
				info, err := cl.Mutate(ctx, ms)
				if err != nil {
					t.Fatalf("shards=%d cached=%v batch %d: mutate: %v", shards, cached, batch, err)
				}
				if cl.Generation() != info.Generation {
					t.Fatalf("shards=%d: coordinator generation %d, info %d", shards, cl.Generation(), info.Generation)
				}
				oracle := rkranks.NewEngine(m.build(), rkranks.Options{})
				for _, q := range probes {
					want, err := oracle.Query(rkranks.Dynamic, q, k)
					if err != nil {
						t.Fatalf("oracle: %v", err)
					}
					// Twice: the second hit answers from cache (when present)
					// and must be equally post-mutation.
					for pass := 0; pass < 2; pass++ {
						got, err := backend.QueryContext(ctx, rkranks.Dynamic, q, k)
						if err != nil {
							t.Fatalf("shards=%d cached=%v batch %d q=%d: %v", shards, cached, batch, q, err)
						}
						if !sameEntries(got.Entries, want.Entries) {
							t.Fatalf("shards=%d cached=%v batch %d q=%d pass %d: %v, oracle %v",
								shards, cached, batch, q, pass, got.Entries, want.Entries)
						}
					}
				}
				// Batch queries merge per query; same contract.
				res, err := cl.QueryManyContext(ctx, rkranks.Dynamic, probes, k)
				if err != nil {
					t.Fatalf("shards=%d batch query: %v", shards, err)
				}
				for i, q := range probes {
					want, _ := oracle.Query(rkranks.Dynamic, q, k)
					if !sameEntries(res[i].Entries, want.Entries) {
						t.Fatalf("shards=%d batch path q=%d: %v, oracle %v", shards, q, res[i].Entries, want.Entries)
					}
				}
			}
			cl.Close()
		}
	}
}

// TestLiveChurn hammers one live backend with concurrent readers and a
// mutator (run under -race): queries must always succeed against a
// complete generation, generations must be monotone per reader, and the
// final state must equal a from-scratch build.
func TestLiveChurn(t *testing.T) {
	const k = 4
	ctx := context.Background()
	g := liveTestGraph(40, 23)
	m := newMirror(g)
	lb, err := rkranks.NewLiveBackend(g, rkranks.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			var lastGen uint64
			for !stop.Load() {
				q := int32(rng.Intn(40)) // original vertices stay valid forever
				res, err := lb.QueryContext(ctx, rkranks.Dynamic, q, k)
				if err != nil {
					errs <- err
					return
				}
				if res.Generation < lastGen {
					errs <- fmt.Errorf("reader %d: generation moved backwards: %d -> %d", r, lastGen, res.Generation)
					return
				}
				lastGen = res.Generation
				if len(res.Entries) != k {
					errs <- fmt.Errorf("reader %d: %d entries, want %d", r, len(res.Entries), k)
					return
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(77))
	for batch := 0; batch < 25; batch++ {
		ms := m.randomBatch(rng, 3, batch%3 != 0)
		if len(ms) == 0 {
			continue
		}
		if _, err := lb.Mutate(ctx, ms); err != nil {
			t.Fatalf("churn batch %d: %v", batch, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent state equals a from-scratch build.
	oracle := rkranks.NewEngine(m.build(), rkranks.Options{})
	for q := int32(0); q < 40; q += 7 {
		want, err := oracle.Query(rkranks.Dynamic, q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lb.QueryContext(ctx, rkranks.Dynamic, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEntries(got.Entries, want.Entries) {
			t.Fatalf("post-churn q=%d: %v, oracle %v", q, got.Entries, want.Entries)
		}
	}
}

// TestLiveMutateValidation: malformed batches are rejected atomically —
// typed invalid-argument errors, no state change, no generation bump.
func TestLiveMutateValidation(t *testing.T) {
	ctx := context.Background()
	g := liveTestGraph(10, 31)
	lb, err := rkranks.NewLiveBackend(g, rkranks.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	before, err := lb.QueryContext(ctx, rkranks.Dynamic, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]rkranks.Mutation{
		{},                                      // empty batch
		{rkranks.InsertEdge(0, 99, 1)},          // unknown endpoint
		{rkranks.DeleteEdge(0, 0)},              // absent edge
		{rkranks.SetWeight(0, 1, -1)},           // invalid weight (pair may exist)
		{rkranks.InsertEdge(1, 2, 1), {Op: 77}}, // valid op then junk: all-or-nothing
	}
	for i, ms := range bad {
		if _, err := lb.Mutate(ctx, ms); err == nil {
			t.Errorf("batch %d accepted", i)
		}
	}
	after, err := lb.QueryContext(ctx, rkranks.Dynamic, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation != before.Generation {
		t.Fatalf("rejected batches moved the generation: %d -> %d", before.Generation, after.Generation)
	}
	if !sameEntries(after.Entries, before.Entries) {
		t.Fatal("rejected batches changed answers")
	}
}
