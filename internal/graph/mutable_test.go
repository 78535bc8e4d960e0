package graph

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// buildTestGraph returns a small fixed graph for mutation tests.
func buildTestGraph(t *testing.T, directed bool) *Graph {
	t.Helper()
	b := NewBuilder(directed)
	for i := 0; i < 6; i++ {
		b.AddNode()
	}
	b.MustAddEdge(0, 1, 1.0)
	b.MustAddEdge(1, 2, 2.0)
	b.MustAddEdge(2, 3, 1.5)
	b.MustAddEdge(3, 4, 0.5)
	b.MustAddEdge(4, 5, 2.5)
	b.MustAddEdge(0, 5, 3.0)
	return b.Finalize()
}

// sameCSR reports whether two graphs have identical CSR adjacency —
// node count, direction, and every node's (targets, weights) span.
func sameCSR(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() || a.Directed() != b.Directed() {
		return false
	}
	return a.fwd.equal(b.fwd) && a.rev.equal(b.rev)
}

func TestEdgeStoreRoundTrip(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := buildTestGraph(t, directed)
		s := NewEdgeStore(g)
		if s.N() != g.N() || int64(s.M()) != g.M() || s.Directed() != directed {
			t.Fatalf("store shape mismatch: n=%d m=%d directed=%v", s.N(), s.M(), s.Directed())
		}
		if !sameCSR(g, s.Build()) {
			t.Fatalf("directed=%v: Build() of an unmutated store differs from the seed graph", directed)
		}
	}
}

func TestEdgeStoreApplySemantics(t *testing.T) {
	g := buildTestGraph(t, false)
	s := NewEdgeStore(g)

	// Insert a fresh edge; reinsertion of an existing pair fails.
	if err := s.Apply(InsertEdge(1, 4, 1.25)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := s.Apply(InsertEdge(4, 1, 9)); !errors.Is(err, ErrEdgeExists) {
		t.Fatalf("duplicate insert (reversed pair, undirected): got %v, want ErrEdgeExists", err)
	}

	// Weight change of an existing and of a missing edge.
	if err := s.Apply(SetWeight(0, 1, 7.5)); err != nil {
		t.Fatalf("set_weight: %v", err)
	}
	if err := s.Apply(SetWeight(0, 3, 1)); !errors.Is(err, ErrEdgeNotFound) {
		t.Fatalf("set_weight on absent edge: got %v, want ErrEdgeNotFound", err)
	}

	// Delete an existing and then the now-absent edge.
	if err := s.Apply(DeleteEdge(2, 3)); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := s.Apply(DeleteEdge(2, 3)); !errors.Is(err, ErrEdgeNotFound) {
		t.Fatalf("double delete: got %v, want ErrEdgeNotFound", err)
	}

	// Vertex addition grows the id space; new ids become insertable.
	if err := s.Apply(AddVertices(2)); err != nil {
		t.Fatalf("add_vertex: %v", err)
	}
	if s.N() != 8 {
		t.Fatalf("N after AddVertices(2) = %d, want 8", s.N())
	}
	if err := s.Apply(InsertEdge(6, 7, 0.25)); err != nil {
		t.Fatalf("insert on fresh vertices: %v", err)
	}

	// Structural validation.
	if err := s.Apply(InsertEdge(0, 99, 1)); !errors.Is(err, ErrBadMutation) {
		t.Fatalf("out-of-range endpoint: got %v, want ErrBadMutation", err)
	}
	if err := s.Apply(InsertEdge(2, 4, math.NaN())); !errors.Is(err, ErrBadMutation) {
		t.Fatalf("NaN weight: got %v, want ErrBadMutation", err)
	}
	if err := s.Apply(InsertEdge(2, 4, -1)); !errors.Is(err, ErrBadMutation) {
		t.Fatalf("negative weight: got %v, want ErrBadMutation", err)
	}
	if err := s.Apply(Mutation{Op: 99}); !errors.Is(err, ErrBadMutation) {
		t.Fatalf("unknown op: got %v, want ErrBadMutation", err)
	}

	// The mutated store builds the same graph a from-scratch builder does.
	b := NewBuilder(false)
	b.EnsureNodes(8)
	b.MustAddEdge(0, 1, 7.5)
	b.MustAddEdge(1, 2, 2.0)
	b.MustAddEdge(3, 4, 0.5)
	b.MustAddEdge(4, 5, 2.5)
	b.MustAddEdge(0, 5, 3.0)
	b.MustAddEdge(1, 4, 1.25)
	b.MustAddEdge(6, 7, 0.25)
	if !sameCSR(s.Build(), b.Finalize()) {
		t.Fatal("mutated store's Build() differs from the from-scratch builder")
	}
}

func TestEdgeStoreAmbiguousParallelEdges(t *testing.T) {
	// Seed a graph with a recorded parallel edge; pair mutations must
	// refuse it, and other pairs must stay mutable.
	b := NewBuilder(false)
	b.EnsureNodes(3)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 0, 2) // parallel copy of {0,1}
	b.MustAddEdge(1, 2, 1)
	s := NewEdgeStore(b.Finalize())

	if err := s.Apply(DeleteEdge(0, 1)); !errors.Is(err, ErrAmbiguousEdge) {
		t.Fatalf("delete of parallel pair: got %v, want ErrAmbiguousEdge", err)
	}
	if err := s.Apply(SetWeight(0, 1, 5)); !errors.Is(err, ErrAmbiguousEdge) {
		t.Fatalf("set_weight of parallel pair: got %v, want ErrAmbiguousEdge", err)
	}
	if err := s.Apply(InsertEdge(0, 1, 5)); !errors.Is(err, ErrEdgeExists) {
		t.Fatalf("insert over parallel pair: got %v, want ErrEdgeExists", err)
	}
	if err := s.Apply(SetWeight(1, 2, 5)); err != nil {
		t.Fatalf("unrelated pair must stay mutable: %v", err)
	}
}

func TestEdgeStoreCloneIsolation(t *testing.T) {
	g := buildTestGraph(t, false)
	s := NewEdgeStore(g)
	c := s.Clone()
	if err := c.Apply(DeleteEdge(0, 1)); err != nil {
		t.Fatalf("clone delete: %v", err)
	}
	if err := c.Apply(SetWeight(1, 2, 9)); err != nil {
		t.Fatalf("clone set_weight: %v", err)
	}
	// The original still builds the seed graph.
	if !sameCSR(s.Build(), g) {
		t.Fatal("mutating a clone changed the original store")
	}
}

func TestWeightOnly(t *testing.T) {
	if !WeightOnly([]Mutation{SetWeight(0, 1, 2), SetWeight(1, 2, 3)}) {
		t.Fatal("all-set_weight batch reported as not weight-only")
	}
	if WeightOnly([]Mutation{SetWeight(0, 1, 2), DeleteEdge(1, 2)}) {
		t.Fatal("batch with a delete reported as weight-only")
	}
	if !WeightOnly(nil) {
		t.Fatal("empty batch should be vacuously weight-only")
	}
}

func TestPatchWeightMatchesRebuild(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := buildTestGraph(t, directed)
		s := NewEdgeStore(g)
		patches := []Mutation{
			SetWeight(0, 1, 4.25),
			SetWeight(3, 4, 0.125),
			SetWeight(0, 1, 0.75), // re-patch the same pair
		}
		for _, m := range patches {
			if err := s.Apply(m); err != nil {
				t.Fatalf("directed=%v apply: %v", directed, err)
			}
			g.PatchWeight(m.U, m.V, m.Weight)
		}
		if !sameCSR(g, s.Build()) {
			t.Fatalf("directed=%v: PatchWeight result differs from a rebuild", directed)
		}
	}
}

func TestPatchWeightSelfLoopAndPacked(t *testing.T) {
	b := NewBuilder(false)
	b.EnsureNodes(3)
	b.MustAddEdge(0, 0, 1.0) // self-loop: two parity arcs in one span
	b.MustAddEdge(0, 1, 2.0)
	b.MustAddEdge(1, 2, 3.0)
	g := b.Finalize()
	fwd, _ := g.CSR()
	s := NewEdgeStore(g)

	for _, m := range []Mutation{SetWeight(0, 0, 9), SetWeight(1, 2, 0.5)} {
		if err := s.Apply(m); err != nil {
			t.Fatalf("apply: %v", err)
		}
		g.PatchWeight(m.U, m.V, m.Weight)
	}
	if !sameCSR(g, s.Build()) {
		t.Fatal("self-loop patch differs from a rebuild")
	}
	// A view taken before the patch sees the patched slab: there is no
	// second copy to fall out of date.
	if got := fwd.Arcs(0); !slices.Equal(got, []Arc{{To: 0, W: 9}, {To: 0, W: 9}, {To: 1, W: 2}}) {
		t.Fatalf("node 0 arcs after patch: %v", got)
	}
}

// TestEdgeStoreRandomizedOracle drives a random mutation schedule and
// checks after every step that Build() matches a from-scratch builder
// over the mirrored edge set.
func TestEdgeStoreRandomizedOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		g := buildTestGraph(t, false)
		s := NewEdgeStore(g)

		// Mirror state: unordered pair -> weight.
		type pair struct{ u, v int32 }
		norm := func(u, v int32) pair {
			if u > v {
				u, v = v, u
			}
			return pair{u, v}
		}
		mirror := map[pair]float64{}
		g.Edges(func(e Edge) bool {
			mirror[norm(e.From, e.To)] = e.Weight
			return true
		})
		n := g.N()

		for step := 0; step < 200; step++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			w := rng.Float64() * 4
			var m Mutation
			switch rng.Intn(4) {
			case 0:
				m = InsertEdge(u, v, w)
			case 1:
				m = DeleteEdge(u, v)
			case 2:
				m = SetWeight(u, v, w)
			case 3:
				m = AddVertices(1)
			}
			err := s.Apply(m)
			_, exists := mirror[norm(u, v)]
			switch m.Op {
			case MutInsertEdge:
				if exists {
					if !errors.Is(err, ErrEdgeExists) {
						t.Fatalf("seed %d step %d: insert over existing: %v", seed, step, err)
					}
				} else if err != nil {
					t.Fatalf("seed %d step %d: insert: %v", seed, step, err)
				} else {
					mirror[norm(u, v)] = w
				}
			case MutDeleteEdge:
				if !exists {
					if !errors.Is(err, ErrEdgeNotFound) {
						t.Fatalf("seed %d step %d: delete absent: %v", seed, step, err)
					}
				} else if err != nil {
					t.Fatalf("seed %d step %d: delete: %v", seed, step, err)
				} else {
					delete(mirror, norm(u, v))
				}
			case MutSetWeight:
				if !exists {
					if !errors.Is(err, ErrEdgeNotFound) {
						t.Fatalf("seed %d step %d: set_weight absent: %v", seed, step, err)
					}
				} else if err != nil {
					t.Fatalf("seed %d step %d: set_weight: %v", seed, step, err)
				} else {
					mirror[norm(u, v)] = w
				}
			case MutAddVertex:
				if err != nil {
					t.Fatalf("seed %d step %d: add_vertex: %v", seed, step, err)
				}
				n++
			}
			if step%40 != 0 {
				continue
			}
			b := NewBuilder(false)
			b.EnsureNodes(n)
			for p, pw := range mirror {
				b.MustAddEdge(p.u, p.v, pw)
			}
			if !sameCSR(s.Build(), b.Finalize()) {
				t.Fatalf("seed %d step %d: store Build() diverged from mirror", seed, step)
			}
		}
	}
}
