package sssp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rkranks/internal/gen"
	"rkranks/internal/graph"
	tg "rkranks/internal/testgraphs"
)

// bellmanFord is the independent reference implementation.
func bellmanFord(g *graph.Graph, src int32, reverse bool) []float64 {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := int32(0); int(u) < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			arcs := g.Neighbors(u)
			if reverse {
				arcs = g.RNeighbors(u)
			}
			for _, a := range arcs {
				if nd := dist[u] + a.W; nd < dist[a.To] {
					dist[a.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// TestDijkstraAgainstBellmanFord is the core SSSP property test across
// random directed and undirected graphs.
func TestDijkstraAgainstBellmanFord(t *testing.T) {
	check := func(seed int64, directed, reverse bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := gen.GNM(n, rng.Intn(4*n), directed, seed)
		s := New(g)
		src := int32(rng.Intn(n))
		want := bellmanFord(g, src, reverse)
		dist := make([]float64, n)
		if reverse {
			// AllDistances is forward-only; drive the search manually.
			for i := range dist {
				dist[i] = math.Inf(1)
			}
			s.ResetReverse(src)
			for {
				v, d, ok := s.Next()
				if !ok {
					break
				}
				dist[v] = d
			}
		} else {
			AllDistances(s, src, dist)
		}
		for v := 0; v < n; v++ {
			a, b := dist[v], want[v]
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				t.Logf("seed=%d v=%d reachability: %g vs %g", seed, v, a, b)
				return false
			}
			if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-9 {
				t.Logf("seed=%d v=%d: %g vs %g", seed, v, a, b)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	for _, directed := range []bool{false, true} {
		for _, reverse := range []bool{false, true} {
			directed, reverse := directed, reverse
			if err := quick.Check(func(seed int64) bool { return check(seed, directed, reverse) }, cfg); err != nil {
				t.Errorf("directed=%v reverse=%v: %v", directed, reverse, err)
			}
		}
	}
}

func TestSettleOrderNondecreasing(t *testing.T) {
	g := gen.GNM(80, 300, false, 3)
	s := New(g)
	s.Reset(0)
	last := -1.0
	for {
		_, d, ok := s.Next()
		if !ok {
			break
		}
		if d < last {
			t.Fatalf("settle order decreased: %g after %g", d, last)
		}
		last = d
	}
}

func TestParentsFormShortestPathTree(t *testing.T) {
	g := gen.GNM(50, 200, false, 9)
	s := New(g)
	dist := make([]float64, g.N())
	AllDistances(s, 7, dist)
	for v := int32(0); int(v) < g.N(); v++ {
		if !s.Settled(v) || v == 7 {
			continue
		}
		p := s.Parent(v)
		if p < 0 {
			t.Fatalf("settled node %d has no parent", v)
		}
		// The parent edge must certify the distance.
		ok := false
		for _, a := range g.Neighbors(p) {
			if a.To == v && math.Abs(dist[p]+a.W-dist[v]) < 1e-9 {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("parent edge %d->%d does not certify dist", p, v)
		}
		if s.Depth(v) != s.Depth(p)+1 {
			t.Errorf("depth(%d)=%d, parent depth %d", v, s.Depth(v), s.Depth(p))
		}
	}
}

func TestPopWithoutExpandPrunes(t *testing.T) {
	// Path 0-1-2-3: popping 1 without expanding must leave 2,3 unreached.
	g := tg.Path(4)
	s := New(g)
	s.Reset(0)
	v, d, ok := s.Pop()
	if !ok || v != 0 {
		t.Fatalf("first pop = %d", v)
	}
	s.Expand(v, d)
	v, _, _ = s.Pop() // node 1, not expanded
	if v != 1 {
		t.Fatalf("second pop = %d", v)
	}
	if _, _, ok := s.Pop(); ok {
		t.Error("pruned subtree still reachable")
	}
	if s.Reached(2) || s.Reached(3) {
		t.Error("pruned nodes were reached")
	}
}

func TestExpandBoundedDropsFar(t *testing.T) {
	g := tg.Path(5)
	s := New(g)
	s.Reset(0)
	v, d, _ := s.Pop()
	s.ExpandBounded(v, d, 0.5) // all edges weigh 1 -> nothing enqueued
	if s.Frontier() != 0 {
		t.Error("bounded expand enqueued beyond the bound")
	}
	if _, _, ok := s.Pop(); ok {
		t.Error("unexpected frontier")
	}
}

func TestExpandBoundedReofferViaShorterPath(t *testing.T) {
	// Triangle: 0-2 weighs 3 (dropped by bound 2.5), 0-1-2 weighs 2.
	b := graph.NewBuilder(false)
	b.EnsureNodes(3)
	b.MustAddEdge(0, 2, 3)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 1)
	g := b.Finalize()
	s := New(g)
	s.Reset(0)
	for {
		v, d, ok := s.Pop()
		if !ok {
			break
		}
		s.ExpandBounded(v, d, 2.5)
		if v == 2 && d != 2 {
			t.Errorf("node 2 settled at %g, want 2", d)
		}
	}
	if !s.Settled(2) {
		t.Error("node 2 never settled despite path below bound")
	}
}

func TestDistance(t *testing.T) {
	g := tg.Toy()
	s := New(g)
	d, ok := Distance(s, tg.Alice, tg.George)
	if !ok || math.Abs(d-2.3) > 1e-9 {
		t.Errorf("d(Alice,George) = %g, %v; want 2.3", d, ok)
	}
	disc := tg.Path(3)
	b := graph.NewBuilder(false)
	b.EnsureNodes(4)
	b.MustAddEdge(0, 1, 1)
	// node 2,3 disconnected
	disc = b.Finalize()
	s2 := New(disc)
	if _, ok := Distance(s2, 0, 3); ok {
		t.Error("unreachable node reported reachable")
	}
}

func TestKNNOnToy(t *testing.T) {
	g := tg.Toy()
	s := New(g)
	res := KNN(s, tg.Alice, 3)
	want := []int32{tg.Bob, tg.Eric, tg.Caroline}
	if len(res) != 3 {
		t.Fatalf("len = %d", len(res))
	}
	for i, w := range want {
		if res[i].Node != w {
			t.Errorf("knn[%d] = %d, want %d", i, res[i].Node, w)
		}
	}
	// Larger k than the component: capped.
	res = KNN(s, tg.Alice, 100)
	if len(res) != 6 {
		t.Errorf("capped knn len = %d, want 6", len(res))
	}
}

func TestNearestWithRanksTies(t *testing.T) {
	// Star with tied spokes: 1,2,3 at distance 1, node 4 at distance 2.
	g := tg.Star([]float64{1, 1, 1, 2})
	s := New(g)
	res := NearestWithRanks(s, 0, 4)
	if len(res) != 4 {
		t.Fatalf("len = %d", len(res))
	}
	for i := 0; i < 3; i++ {
		if res[i].Rank != 1 {
			t.Errorf("tied spoke rank = %d, want 1", res[i].Rank)
		}
	}
	if res[3].Rank != 4 {
		t.Errorf("far spoke rank = %d, want 4", res[3].Rank)
	}
}

func TestNearestWithRanksExhausts(t *testing.T) {
	g := tg.Path(3)
	s := New(g)
	res := NearestWithRanks(s, 0, 99)
	if len(res) != 2 {
		t.Fatalf("len = %d, want 2", len(res))
	}
}

func TestCutoffMonotone(t *testing.T) {
	for _, d := range []float64{0, 1e-12, 1, 12345.678, math.Inf(1)} {
		c := Cutoff(d)
		if c < d {
			t.Errorf("Cutoff(%g) = %g < input", d, c)
		}
	}
	if Cutoff(0) != 0 {
		t.Error("Cutoff(0) != 0")
	}
}

func TestReverseOnDirectedCycle(t *testing.T) {
	g := tg.Cycle(4) // 0->1->2->3->0
	s := New(g)
	s.ResetReverse(0)
	// Distances TO node 0: d(3,0)=1, d(2,0)=2, d(1,0)=3.
	want := map[int32]float64{0: 0, 3: 1, 2: 2, 1: 3}
	for {
		v, d, ok := s.Next()
		if !ok {
			break
		}
		if want[v] != d {
			t.Errorf("d(%d -> 0) = %g, want %g", v, d, want[v])
		}
	}
}

// TestPopExpandBoundedMatchesSplitCalls: the fused call must settle the
// exact same (node, dist) sequence as Pop followed by ExpandBounded, for
// any bound, on forward and reverse traversals.
func TestPopExpandBoundedMatchesSplitCalls(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := gen.GNM(120, 500, directed, 61)
		a, b := New(g), New(g)
		for _, src := range []int32{0, 7, 63} {
			for _, maxDist := range []float64{math.Inf(1), 3.5, 0.9} {
				a.Reset(src)
				b.Reset(src)
				for {
					v1, d1, ok1 := a.PopExpandBounded(maxDist)
					v2, d2, ok2 := b.Pop()
					if ok2 {
						b.ExpandBounded(v2, d2, maxDist)
					}
					if ok1 != ok2 || v1 != v2 || d1 != d2 {
						t.Fatalf("directed=%v src=%d max=%g: fused (%d,%g,%v) vs split (%d,%g,%v)",
							directed, src, maxDist, v1, d1, ok1, v2, d2, ok2)
					}
					if !ok1 {
						break
					}
					if a.Settled(v1) != b.Settled(v1) || a.Depth(v1) != b.Depth(v1) || a.Parent(v1) != b.Parent(v1) {
						t.Fatalf("bookkeeping diverged at node %d", v1)
					}
				}
			}
		}
	}
}
