package graph

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// loaderEdgeCases are text-format graphs exercising the loader paths that
// feed CSR construction: duplicate edges (with and without dedupe
// semantics — ReadText keeps parallel edges), self-loops, zero-weight
// edges, and isolated vertices (declared by the nodes header but never
// referenced by an edge).
var loaderEdgeCases = map[string]string{
	"duplicate-edges": `undirected
nodes 4
0 1 2.0
0 1 2.0
1 2 1.0
`,
	"self-loops": `directed
nodes 3
0 0 1.0
0 1 2.0
1 1 0.5
`,
	"zero-weight": `undirected
nodes 4
0 1 0
1 2 0
2 3 1.5
`,
	"isolated-vertices": `undirected
nodes 6
1 2 1.0
4 1 2.5
`,
	"directed-mixed": `directed
nodes 5
0 1 1.0
1 0 2.0
2 2 0
3 0 0.25
0 3 0.25
`,
}

// TestPackedMatchesAdjacency asserts, for every loader edge case, that the
// CSR views hold exactly the file's edge list, arc for arc, in (target,
// weight) order, in both orientations.
func TestPackedMatchesAdjacency(t *testing.T) {
	for name, text := range loaderEdgeCases {
		t.Run(name, func(t *testing.T) {
			g, err := ReadText(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			assertPackedMatches(t, g, textEdges(t, text))
		})
	}
}

// textEdges extracts the `u v w` lines of a numeric loader case.
func textEdges(t *testing.T, text string) []Edge {
	t.Helper()
	var edges []Edge
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		u, err1 := strconv.Atoi(f[0])
		v, err2 := strconv.Atoi(f[1])
		w, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("bad edge line %q", line)
		}
		edges = append(edges, Edge{From: int32(u), To: int32(v), Weight: w})
	}
	return edges
}

// assertPackedMatches checks g's CSR views, and the Neighbors/RNeighbors
// accessors over them, against adjacency lists derived from edges: each
// edge u->v contributes arc (v, w) to u's forward span and (u, w) to v's
// reverse span, plus the mirror arcs when g is undirected.
func assertPackedMatches(t *testing.T, g *Graph, edges []Edge) {
	t.Helper()
	fwd, rev := g.CSR()
	if !g.Directed() && fwd != rev {
		t.Error("undirected reverse view does not alias the forward view")
	}
	if fwd.N() != g.N() || rev.N() != g.N() {
		t.Fatalf("CSR N=%d/%d, graph N=%d", fwd.N(), rev.N(), g.N())
	}
	want, wantRev := make([][]Arc, g.N()), make([][]Arc, g.N())
	for _, e := range edges {
		want[e.From] = append(want[e.From], Arc{To: e.To, W: e.Weight})
		wantRev[e.To] = append(wantRev[e.To], Arc{To: e.From, W: e.Weight})
		if !g.Directed() {
			want[e.To] = append(want[e.To], Arc{To: e.From, W: e.Weight})
			wantRev[e.From] = append(wantRev[e.From], Arc{To: e.To, W: e.Weight})
		}
	}
	for v := int32(0); int(v) < g.N(); v++ {
		for _, c := range []struct {
			name string
			got  []Arc
			view []Arc
			want []Arc
		}{
			{"forward", g.Neighbors(v), fwd.Arcs(v), want[v]},
			{"reverse", g.RNeighbors(v), rev.Arcs(v), wantRev[v]},
		} {
			sort.Slice(c.want, func(i, j int) bool {
				if c.want[i].To != c.want[j].To {
					return c.want[i].To < c.want[j].To
				}
				return c.want[i].W < c.want[j].W
			})
			if !slices.Equal(c.got, c.view) {
				t.Fatalf("node %d %s: accessor %v, CSR view %v", v, c.name, c.got, c.view)
			}
			if !slices.Equal(c.got, c.want) {
				t.Fatalf("node %d %s: CSR %v, edge list %v", v, c.name, c.got, c.want)
			}
		}
		if fwd.Degree(v) != len(want[v]) || rev.Degree(v) != len(wantRev[v]) {
			t.Fatalf("node %d: degrees %d/%d, edge list %d/%d", v, fwd.Degree(v), rev.Degree(v), len(want[v]), len(wantRev[v]))
		}
	}
}

// TestPackedRoundTrip fuzz-style: random graphs (directed and undirected,
// with self-loops, duplicate and zero-weight edges, isolated vertices) must
// hold exactly the Builder's edge list, and CSR -> Edges -> CSR must be
// lossless.
func TestPackedRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		directed := rng.Intn(2) == 0
		dedupe := rng.Intn(2) == 0
		n := 1 + rng.Intn(40)
		b := NewBuilder(directed)
		b.SetDedupe(dedupe)
		b.EnsureNodes(n) // some vertices stay isolated
		type pair struct{ u, v NodeID }
		var edges []Edge
		minW := map[pair]int{} // dedupe: index of the pair's lightest edge
		for i := rng.Intn(3 * n); i > 0; i-- {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			w := float64(rng.Intn(5)) / 2 // zero weights and ties included
			if !directed && u == v && rng.Intn(2) == 0 {
				continue
			}
			b.MustAddEdge(u, v, w)
			k := pair{u, v}
			if !directed && u > v {
				k = pair{v, u}
			}
			if j, ok := minW[k]; dedupe && ok {
				edges[j].Weight = min(edges[j].Weight, w)
				continue
			}
			minW[k] = len(edges)
			edges = append(edges, Edge{From: u, To: v, Weight: w})
		}
		g := b.Finalize()
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if g.M() != int64(len(edges)) {
			t.Fatalf("seed %d: M=%d, want %d", seed, g.M(), len(edges))
		}
		assertPackedMatches(t, g, edges)

		// CSR -> edge list -> CSR.
		rb := NewBuilder(directed)
		rb.EnsureNodes(n)
		g.Edges(func(e Edge) bool {
			rb.MustAddEdge(e.From, e.To, e.Weight)
			return true
		})
		back := rb.Finalize()
		if !back.fwd.equal(g.fwd) || !back.rev.equal(g.rev) {
			t.Fatalf("seed %d: CSR -> Edges -> CSR changed the arrays", seed)
		}
	}
}

// TestPackedIdempotent: the CSR views are built once, by Finalize, and
// CSRBytes reports their slab sizes from then on.
func TestPackedIdempotent(t *testing.T) {
	b := NewBuilder(false)
	b.EnsureNodes(3)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 2)
	g := b.Finalize()
	// Undirected: one CSR of 4 int32 offsets and 4 arcs of 16 bytes.
	if got, want := g.CSRBytes(), int64(4*4+4*16); got != want {
		t.Errorf("CSRBytes right after Finalize = %d, want %d (the slab sizes)", got, want)
	}
	f1, r1 := g.CSR()
	f2, r2 := g.CSR()
	if f1 != f2 || r1 != r2 {
		t.Error("CSR returned different views on a second call")
	}
	if f1.NumArcs() != 4 { // undirected edges count twice
		t.Errorf("NumArcs = %d, want 4", f1.NumArcs())
	}

	db := NewBuilder(true)
	db.EnsureNodes(3)
	db.MustAddEdge(0, 1, 1)
	dg := db.Finalize()
	fwd, rev := dg.CSR()
	if got, want := dg.CSRBytes(), fwd.Bytes()+rev.Bytes(); got != want || want != 2*(4*4+16) {
		t.Errorf("directed CSRBytes = %d, want both orientations (%d)", got, want)
	}
}

// TestPackedEmptyGraph covers the zero-node and zero-edge corners.
func TestPackedEmptyGraph(t *testing.T) {
	g := NewBuilder(true).Finalize()
	fwd, rev := g.CSR()
	if fwd == nil || rev == nil {
		t.Fatal("CSR returned nil for an empty graph")
	}
	if fwd.N() != 0 || fwd.NumArcs() != 0 || g.CSRBytes() != 2*4 {
		t.Errorf("empty graph: N=%d arcs=%d bytes=%d", fwd.N(), fwd.NumArcs(), g.CSRBytes())
	}
}
