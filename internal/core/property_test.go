package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
	tg "rkranks/internal/testgraphs"
)

func mustIndex(t testing.TB, g *graph.Graph) *ridx.ShardedIndex {
	t.Helper()
	ix, err := ridx.Build(g, ridx.BuildParams{
		Hubs: hub.Select(g, hub.DegreeFirst, g.N()/8+1, hub.Options{}),
		M:    g.N()/4 + 1,
		K:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// tieHeavyGraph builds a random graph whose weights come from {1, 2}, so
// distance ties are pervasive — the hardest regime for the tie-aware rank
// bounds (Lemmas 2-4) and the refinement's early abort.
func tieHeavyGraph(seed int64, directed bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 10 + rng.Intn(40)
	b := graph.NewBuilder(directed)
	b.SetDedupe(true)
	b.EnsureNodes(n)
	m := n * (1 + rng.Intn(5))
	for i := 0; i < m; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			b.MustAddEdge(u, v, float64(1+rng.Intn(2)))
		}
	}
	return b.Finalize()
}

// TestTieHeavyEnginesMatchOracle is the adversarial tie property test: on
// graphs where almost every distance collides, every engine must still
// produce a valid reverse k-ranks answer.
func TestTieHeavyEnginesMatchOracle(t *testing.T) {
	check := func(seed int64, directed bool) bool {
		g := tieHeavyGraph(seed, directed)
		e := NewEngine(g, Options{})
		e.SetIndex(mustIndex(t, g))
		rng := rand.New(rand.NewSource(seed ^ 99))
		for trial := 0; trial < 4; trial++ {
			q := int32(rng.Intn(g.N()))
			k := 1 + rng.Intn(10)
			oracle := rank.BruteForceReverse(g, q, k)
			for _, algo := range []Algorithm{Static, Dynamic, Indexed} {
				res, err := e.Query(algo, q, k)
				if err != nil {
					t.Logf("%v: %v", algo, err)
					return false
				}
				if len(res.Entries) != len(oracle) {
					t.Logf("seed=%d %v q=%d k=%d size %d want %d (%v vs %v)",
						seed, algo, q, k, len(res.Entries), len(oracle), res.Entries, oracle)
					return false
				}
				for i := range oracle {
					if res.Entries[i].Rank != oracle[i].Rank {
						t.Logf("seed=%d %v q=%d k=%d ranks %v vs %v",
							seed, algo, q, k, res.Entries, oracle)
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(func(seed int64) bool { return check(seed, false) }, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(seed int64) bool { return check(seed, true) }, cfg); err != nil {
		t.Error(err)
	}
}

// TestZeroWeightEdges: zero-weight edges create distance-0 tie clusters;
// ranks must stay consistent with the oracle.
func TestZeroWeightEdges(t *testing.T) {
	b := graph.NewBuilder(false)
	b.EnsureNodes(6)
	b.MustAddEdge(0, 1, 0)
	b.MustAddEdge(1, 2, 0)
	b.MustAddEdge(2, 3, 1)
	b.MustAddEdge(3, 4, 0)
	b.MustAddEdge(4, 5, 2)
	g := b.Finalize()
	e := NewEngine(g, Options{})
	for q := int32(0); int(q) < g.N(); q++ {
		for _, k := range []int{1, 3, 5} {
			oracle := rank.BruteForceReverse(g, q, k)
			for _, algo := range []Algorithm{Naive, Static, Dynamic} {
				res, err := e.Query(algo, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Entries) != len(oracle) {
					t.Fatalf("%v q=%d k=%d: %v vs %v", algo, q, k, res.Entries, oracle)
				}
				for i := range oracle {
					if res.Entries[i].Rank != oracle[i].Rank {
						t.Fatalf("%v q=%d k=%d: %v vs %v", algo, q, k, res.Entries, oracle)
					}
				}
			}
		}
	}
}

// TestTiedGridMatchesNaive: on a grid whose zero-weight edges put whole
// node clusters at distance 0 from the query, the height bound must count
// only path nodes at positive distance (a node at distance 0 is exactly
// as close as q, not strictly closer). Counting every hop pruned true
// results, e.g. q=21, k=1 returned 9:1 instead of 8:1.
func TestTiedGridMatchesNaive(t *testing.T) {
	g := tg.TiedGrid(12, 12)
	labels, err := hub.BuildLabels(g, hub.Order(g, hub.DegreeFirst, g.N()/4, hub.Options{Seed: 1}), 2)
	if err != nil {
		t.Fatal(err)
	}
	naive := NewEngine(g, Options{})
	e := NewEngine(g, Options{Labels: labels})
	for q := int32(0); int(q) < g.N(); q++ {
		for _, k := range []int{1, 3, 10, 20} {
			want, err := naive.Query(Naive, q, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []Algorithm{Dynamic, HubLabel} {
				got, err := e.Query(a, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got.Entries) != fmt.Sprint(want.Entries) {
					t.Fatalf("%v q=%d k=%d: %v, naive %v", a, q, k, got.Entries, want.Entries)
				}
			}
		}
	}
}

// TestSingleNodeAndTinyGraphs exercises degenerate shapes.
func TestSingleNodeAndTinyGraphs(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddNode()
	g := b.Finalize()
	e := NewEngine(g, Options{})
	res, err := e.Query(Dynamic, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 0 {
		t.Errorf("single node produced %v", res.Entries)
	}

	two := tg.Path(2)
	e2 := NewEngine(two, Options{})
	res, err = e2.Query(Static, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || res.Entries[0].Rank != 1 {
		t.Errorf("2-path result %v", res.Entries)
	}
}

// TestIsolatedQueryNode: a node nobody can reach has an empty result.
func TestIsolatedQueryNode(t *testing.T) {
	b := graph.NewBuilder(true)
	b.EnsureNodes(4)
	b.MustAddEdge(3, 0, 1) // 3 can reach 0; nothing reaches 3... except nothing
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 1)
	g := b.Finalize()
	e := NewEngine(g, Options{})
	for _, algo := range []Algorithm{Naive, Static, Dynamic} {
		res, err := e.Query(algo, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Entries) != 0 {
			t.Errorf("%v: unreachable query node got %v", algo, res.Entries)
		}
	}
}

// TestSelfLoopsIgnoredByRanks: self-loops never change shortest paths.
func TestSelfLoopsIgnoredByRanks(t *testing.T) {
	b := graph.NewBuilder(false)
	b.EnsureNodes(3)
	b.MustAddEdge(0, 0, 0.1)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 1)
	g := b.Finalize()
	e := NewEngine(g, Options{})
	res, err := e.Query(Dynamic, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []rank.Entry{{Node: 1, Rank: 1}, {Node: 2, Rank: 2}}
	for i := range want {
		if res.Entries[i] != want[i] {
			t.Fatalf("got %v, want %v", res.Entries, want)
		}
	}
}

// TestLargeKExceedsGraph: k larger than the reachable set returns everyone.
func TestLargeKExceedsGraph(t *testing.T) {
	g := tg.Toy()
	e := NewEngine(g, Options{})
	res, err := e.Query(Dynamic, tg.Alice, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 6 {
		t.Errorf("k=100 returned %d entries", len(res.Entries))
	}
}

// TestEngineReuseAcrossGraph: many interleaved queries on one engine (the
// epoch machinery) never leak state between queries.
func TestEngineReuseInterleaved(t *testing.T) {
	g := tieHeavyGraph(7, false)
	e := NewEngine(g, Options{})
	e.SetIndex(mustIndex(t, g))
	type key struct {
		algo Algorithm
		q    int32
		k    int
	}
	first := map[key]string{}
	for round := 0; round < 3; round++ {
		for _, algo := range []Algorithm{Static, Dynamic} {
			for q := int32(0); int(q) < g.N(); q += 5 {
				k := 1 + int(q)%7
				res, err := e.Query(algo, q, k)
				if err != nil {
					t.Fatal(err)
				}
				s := fmt.Sprint(res.Entries)
				kk := key{algo, q, k}
				if prev, ok := first[kk]; ok && prev != s {
					t.Fatalf("round %d %v q=%d k=%d drifted: %s vs %s", round, algo, q, k, prev, s)
				}
				first[kk] = s
			}
		}
	}
}
