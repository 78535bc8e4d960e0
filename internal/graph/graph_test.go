package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func buildToy(t *testing.T, directed bool) *Graph {
	t.Helper()
	b := NewBuilder(directed)
	b.EnsureNodes(4)
	b.MustAddEdge(0, 1, 1.5)
	b.MustAddEdge(1, 2, 2.5)
	b.MustAddEdge(2, 3, 0.5)
	b.MustAddEdge(0, 3, 4.0)
	return b.Finalize()
}

func TestBuilderBasics(t *testing.T) {
	g := buildToy(t, false)
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 4 {
		t.Fatalf("M = %d, want 4", g.M())
	}
	if g.Directed() {
		t.Error("undirected graph reports directed")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	g := buildToy(t, false)
	if d := g.OutDegree(0); d != 2 {
		t.Errorf("deg(0) = %d, want 2", d)
	}
	if d := g.InDegree(0); d != 2 {
		t.Errorf("indeg(0) = %d, want 2", d)
	}
	if !slices.Equal(g.Neighbors(0), g.RNeighbors(0)) {
		t.Error("undirected transpose should alias forward adjacency")
	}
}

func TestDirectedTranspose(t *testing.T) {
	g := buildToy(t, true)
	if g.OutDegree(0) != 2 || g.InDegree(0) != 0 {
		t.Errorf("deg(0): out=%d in=%d, want 2/0", g.OutDegree(0), g.InDegree(0))
	}
	if g.OutDegree(3) != 0 || g.InDegree(3) != 2 {
		t.Errorf("deg(3): out=%d in=%d, want 0/2", g.OutDegree(3), g.InDegree(3))
	}
	// Every forward arc must appear reversed in the transpose.
	for u := int32(0); int(u) < g.N(); u++ {
		for _, a := range g.Neighbors(u) {
			if !slices.Contains(g.RNeighbors(a.To), Arc{To: u, W: a.W}) {
				t.Errorf("arc %d->%d (w=%g) missing from transpose", u, a.To, a.W)
			}
		}
	}
}

func TestAdjacencySorted(t *testing.T) {
	b := NewBuilder(false)
	b.EnsureNodes(5)
	b.MustAddEdge(0, 4, 1)
	b.MustAddEdge(0, 2, 1)
	b.MustAddEdge(0, 3, 1)
	b.MustAddEdge(0, 1, 1)
	g := b.Finalize()
	arcs := g.Neighbors(0)
	for i := 1; i < len(arcs); i++ {
		if arcs[i].To < arcs[i-1].To {
			t.Fatalf("adjacency not sorted: %v", arcs)
		}
	}
}

func TestLabels(t *testing.T) {
	b := NewBuilder(false)
	a := b.AddLabeledNode("alpha")
	c := b.AddLabeledNode("beta")
	if again := b.AddLabeledNode("alpha"); again != a {
		t.Errorf("duplicate label returned new node %d", again)
	}
	b.MustAddEdge(a, c, 1)
	g := b.Finalize()
	if !g.HasLabels() {
		t.Fatal("labels lost")
	}
	if g.Label(a) != "alpha" || g.Label(c) != "beta" {
		t.Errorf("labels: %q, %q", g.Label(a), g.Label(c))
	}
	if id, ok := g.NodeByLabel("beta"); !ok || id != c {
		t.Errorf("NodeByLabel(beta) = %d, %v", id, ok)
	}
	if _, ok := g.NodeByLabel("gamma"); ok {
		t.Error("unknown label resolved")
	}
}

func TestUnlabeledLabelIsID(t *testing.T) {
	g := buildToy(t, false)
	if g.HasLabels() {
		t.Fatal("unexpected labels")
	}
	if g.Label(2) != "2" {
		t.Errorf("Label(2) = %q", g.Label(2))
	}
}

func TestAddEdgeErrors(t *testing.T) {
	b := NewBuilder(false)
	b.EnsureNodes(2)
	if err := b.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range target accepted")
	}
	if err := b.AddEdge(0, 1, -1); err == nil {
		t.Error("negative weight accepted")
	}
	if err := b.AddEdge(0, 1, math.NaN()); err == nil {
		t.Error("NaN weight accepted")
	}
	if err := b.AddEdge(0, 1, math.Inf(1)); err == nil {
		t.Error("Inf weight accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddEdge did not panic")
		}
	}()
	b.MustAddEdge(0, 9, 1)
}

func TestDedupeKeepsMinWeight(t *testing.T) {
	b := NewBuilder(false)
	b.SetDedupe(true)
	b.EnsureNodes(2)
	b.MustAddEdge(0, 1, 3)
	b.MustAddEdge(1, 0, 1) // same undirected pair, lighter
	b.MustAddEdge(0, 1, 2)
	g := b.Finalize()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if w := g.Neighbors(0)[0].W; w != 1 {
		t.Errorf("dedupe kept weight %g, want 1", w)
	}
}

func TestDedupeDirectedKeepsBothDirections(t *testing.T) {
	b := NewBuilder(true)
	b.SetDedupe(true)
	b.EnsureNodes(2)
	b.MustAddEdge(0, 1, 3)
	b.MustAddEdge(1, 0, 1)
	g := b.Finalize()
	if g.M() != 2 {
		t.Fatalf("directed dedupe merged opposite arcs: M = %d", g.M())
	}
}

func TestEdgesIteration(t *testing.T) {
	g := buildToy(t, false)
	var count int
	var total float64
	g.Edges(func(e Edge) bool {
		count++
		total += e.Weight
		if e.From > e.To {
			t.Errorf("undirected edge reported with From > To: %+v", e)
		}
		return true
	})
	if count != 4 {
		t.Errorf("iterated %d edges, want 4", count)
	}
	if total != g.TotalWeight() {
		t.Errorf("TotalWeight %g != sum %g", g.TotalWeight(), total)
	}
	// Early stop.
	count = 0
	g.Edges(func(Edge) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop iterated %d", count)
	}
}

func TestMaxOutDegreeNode(t *testing.T) {
	b := NewBuilder(false)
	b.EnsureNodes(4)
	b.MustAddEdge(1, 0, 1)
	b.MustAddEdge(1, 2, 1)
	b.MustAddEdge(1, 3, 1)
	g := b.Finalize()
	if v, d := g.MaxOutDegreeNode(); v != 1 || d != 3 {
		t.Errorf("MaxOutDegreeNode = %d/%d, want 1/3", v, d)
	}
	empty := NewBuilder(false).Finalize()
	if v, d := empty.MaxOutDegreeNode(); v != 0 || d != 0 {
		t.Errorf("empty MaxOutDegreeNode = %d/%d", v, d)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(false).Finalize()
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("empty graph N=%d M=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("empty graph invalid: %v", err)
	}
}

func TestIsolatedNodes(t *testing.T) {
	b := NewBuilder(false)
	b.EnsureNodes(10)
	b.MustAddEdge(0, 1, 1)
	g := b.Finalize()
	if g.N() != 10 {
		t.Fatalf("N = %d", g.N())
	}
	if g.OutDegree(7) != 0 {
		t.Error("isolated node has edges")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomGraphInvariants is a property test: arbitrary random edge lists
// must produce graphs that validate, conserve arc counts, and have
// involutive transposes.
func TestRandomGraphInvariants(t *testing.T) {
	check := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		m := rng.Intn(100)
		b := NewBuilder(directed)
		b.EnsureNodes(n)
		for i := 0; i < m; i++ {
			b.MustAddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), rng.Float64())
		}
		g := b.Finalize()
		if err := g.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		if g.M() != int64(m) {
			t.Logf("M = %d, want %d", g.M(), m)
			return false
		}
		// Degree sums equal arc counts in both orientations.
		var outSum, inSum int
		for v := 0; v < n; v++ {
			outSum += g.OutDegree(int32(v))
			inSum += g.InDegree(int32(v))
		}
		if outSum != inSum {
			t.Logf("degree sums differ: %d vs %d", outSum, inSum)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(func(seed int64) bool { return check(seed, false) }, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(seed int64) bool { return check(seed, true) }, cfg); err != nil {
		t.Error(err)
	}
}

func TestBuilderCounts(t *testing.T) {
	b := NewBuilder(true)
	if b.N() != 0 || b.NumEdges() != 0 {
		t.Error("fresh builder not empty")
	}
	v := b.AddNode()
	w := b.AddNode()
	b.MustAddEdge(v, w, 1)
	if b.N() != 2 || b.NumEdges() != 1 {
		t.Errorf("builder counts N=%d E=%d", b.N(), b.NumEdges())
	}
}
