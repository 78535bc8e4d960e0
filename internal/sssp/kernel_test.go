package sssp

import (
	"math"
	"strings"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/graph"
)

// kernelGraphs spans the shapes whose traversal the engines run: the
// loader edge cases (duplicates, self-loops, zero weights, isolated
// vertices) plus generated topologies.
func kernelGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{
		"dblp-like":     gen.DBLPLike(gen.DBLPLikeParams{Nodes: 300, AttachPerNode: 4, Seed: 1}),
		"epinions-like": gen.EpinionsLike(gen.EpinionsLikeParams{Nodes: 300, OutPerNode: 4, BackEdgeProb: 0.3, Seed: 2}),
		"sparse":        gen.GNM(200, 300, false, 3),
	}
	for name, text := range map[string]string{
		"edge-cases": `directed
nodes 6
0 0 1.0
0 1 0
1 0 2.0
1 2 1.0
2 3 0
3 1 0.5
`,
		"isolated": `undirected
nodes 5
0 1 1.0
`,
	} {
		g, err := graph.ReadText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		gs[name] = g
	}
	return gs
}

// settle is one step of a traversal: the settled node, its distance, and
// (for tree-tracking searches) its shortest-path-tree parent and depth.
type settle struct {
	v             int32
	d             float64
	parent, depth int32
}

// refAdjacency builds adjacency lists straight from g.Edges(), reversed
// when reverse is set, so the oracle below shares no code with the CSR.
func refAdjacency(g *graph.Graph, reverse bool) [][]graph.Arc {
	adj := make([][]graph.Arc, g.N())
	g.Edges(func(e graph.Edge) bool {
		u, v := e.From, e.To
		if reverse {
			u, v = v, u
		}
		adj[u] = append(adj[u], graph.Arc{To: v, W: e.Weight})
		if !g.Directed() && u != v {
			adj[v] = append(adj[v], graph.Arc{To: u, W: e.Weight})
		}
		return true
	})
	return adj
}

// refTraversal is the oracle: an O(n²) Dijkstra from src that settles the
// reached node of least (distance, id) — the queue's tie-break — drops
// relaxations beyond maxDist like ExpandBounded, and gives each node the
// first settled node that reached its final distance as its parent.
func refTraversal(adj [][]graph.Arc, src int32, maxDist float64) []settle {
	n := len(adj)
	dist := make([]float64, n)
	parent := make([]int32, n)
	depth := make([]int32, n)
	reached := make([]bool, n)
	done := make([]bool, n)
	dist[src], parent[src], reached[src] = 0, -1, true
	var out []settle
	for {
		u := int32(-1)
		for v := int32(0); int(v) < n; v++ {
			if reached[v] && !done[v] && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return out
		}
		done[u] = true
		if p := parent[u]; p >= 0 {
			depth[u] = depth[p] + 1
		}
		out = append(out, settle{u, dist[u], parent[u], depth[u]})
		for _, a := range adj[u] {
			nd := dist[u] + a.W
			if nd > maxDist || done[a.To] || (reached[a.To] && dist[a.To] <= nd) {
				continue
			}
			dist[a.To], parent[a.To], reached[a.To] = nd, u, true
		}
	}
}

// TestPackedKernelMatchesSlices runs full traversals over the CSR kernel
// and asserts the oracle's settle order, distances, parents and depths,
// from every source in both directions, on every loader edge case.
func TestPackedKernelMatchesSlices(t *testing.T) {
	for name, g := range kernelGraphs(t) {
		t.Run(name, func(t *testing.T) {
			s := New(g)
			for _, reverse := range []bool{false, true} {
				adj := refAdjacency(g, reverse)
				for src := int32(0); int(src) < g.N(); src++ {
					if reverse {
						s.ResetReverse(src)
					} else {
						s.Reset(src)
					}
					for i, want := range refTraversal(adj, src, math.Inf(1)) {
						v, d, ok := s.Next()
						got := settle{v, d, s.Parent(v), s.Depth(v)}
						if !ok || got != want {
							t.Fatalf("src=%d reverse=%v settle %d: kernel %+v (ok=%v), oracle %+v", src, reverse, i, got, ok, want)
						}
					}
					if v, _, ok := s.Next(); ok {
						t.Fatalf("src=%d reverse=%v: kernel settled %d past the oracle's last node", src, reverse, v)
					}
				}
			}
		})
	}
}

// TestLiteKernelMatches drives the refinement kernel (NewLite +
// PopExpandBounded) and the tree-tracking search under a distance bound
// and asserts the oracle's settle sequence on both.
func TestLiteKernelMatches(t *testing.T) {
	for name, g := range kernelGraphs(t) {
		t.Run(name, func(t *testing.T) {
			lite, full := NewLite(g), New(g)
			adj := refAdjacency(g, false)
			for src := int32(0); int(src) < g.N(); src++ {
				for _, bound := range []float64{0.5, 2.5, 1e18} {
					lite.Reset(src)
					full.Reset(src)
					for i, want := range refTraversal(adj, src, bound) {
						lv, ld, lok := lite.PopExpandBounded(bound)
						fv, fd, fok := full.PopExpandBounded(bound)
						if !lok || !fok || lv != want.v || ld != want.d || fv != want.v || fd != want.d {
							t.Fatalf("src=%d bound=%g settle %d: lite (%d,%g,%v), full (%d,%g,%v), oracle (%d,%g)",
								src, bound, i, lv, ld, lok, fv, fd, fok, want.v, want.d)
						}
					}
					if _, _, ok := lite.PopExpandBounded(bound); ok {
						t.Fatalf("src=%d bound=%g: lite kernel settled past the oracle", src, bound)
					}
					if _, _, ok := full.PopExpandBounded(bound); ok {
						t.Fatalf("src=%d bound=%g: full kernel settled past the oracle", src, bound)
					}
				}
			}
		})
	}
}

// benchGraph is the kernel benchmark workload: large enough that layout
// effects show, small enough for -benchtime=100x CI runs.
func benchGraph() *graph.Graph {
	return gen.DBLPLike(gen.DBLPLikeParams{Nodes: 20000, AttachPerNode: 6, Seed: 42})
}

func runKernel(b *testing.B, s *Search, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reset(int32(i % n))
		for {
			if _, _, ok := s.PopExpandBounded(1e18); !ok {
				break
			}
		}
	}
}

// BenchmarkKernelCSR runs full SSSP traversals with shortest-path-tree
// bookkeeping; CI pins GOGC=off and fixed iteration counts so runs are
// comparable per-PR.
func BenchmarkKernelCSR(b *testing.B) {
	g := benchGraph()
	runKernel(b, New(g), g.N())
}

// BenchmarkKernelCSRLite is the refinement configuration: no
// shortest-path-tree bookkeeping.
func BenchmarkKernelCSRLite(b *testing.B) {
	g := benchGraph()
	runKernel(b, NewLite(g), g.N())
}
