package graph

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
)

// Mutation errors, designed for errors.Is dispatch at serving boundaries
// (the live store wraps them into its invalid-argument family so /v1/mutate
// rejects them with 400s instead of 500s).
var (
	// ErrEdgeExists reports an InsertEdge for a pair already present.
	ErrEdgeExists = errors.New("graph: edge already exists")
	// ErrEdgeNotFound reports a DeleteEdge/SetWeight for an absent pair.
	ErrEdgeNotFound = errors.New("graph: edge not found")
	// ErrAmbiguousEdge reports a DeleteEdge/SetWeight touching a pair the
	// seed graph recorded more than once (parallel edges): the mutation
	// cannot tell which copy it means. The mutation API itself never
	// creates parallel edges.
	ErrAmbiguousEdge = errors.New("graph: parallel edges make the mutation ambiguous")
	// ErrBadMutation reports a structurally invalid mutation (unknown op,
	// out-of-range endpoint, invalid weight, non-positive vertex count).
	ErrBadMutation = errors.New("graph: invalid mutation")
)

// MutationOp selects what a Mutation does.
type MutationOp uint8

const (
	// MutInsertEdge adds edge (U, V) with Weight; the pair must be absent.
	MutInsertEdge MutationOp = iota + 1
	// MutDeleteEdge removes edge (U, V); the pair must be present.
	MutDeleteEdge
	// MutSetWeight changes the weight of existing edge (U, V) to Weight.
	MutSetWeight
	// MutAddVertex appends Count fresh isolated vertices (Count <= 0 means
	// one). U, V, and Weight are ignored.
	MutAddVertex
)

// String returns the wire name of the op (shared with internal/api).
func (op MutationOp) String() string {
	switch op {
	case MutInsertEdge:
		return "insert_edge"
	case MutDeleteEdge:
		return "delete_edge"
	case MutSetWeight:
		return "set_weight"
	case MutAddVertex:
		return "add_vertex"
	}
	return fmt.Sprintf("MutationOp(%d)", uint8(op))
}

// Mutation is one live-graph update. For undirected graphs (U, V) is the
// unordered pair {U, V}.
type Mutation struct {
	Op     MutationOp
	U, V   NodeID
	Weight float64
	// Count is the number of vertices MutAddVertex appends (<= 0 means 1).
	Count int
}

// InsertEdge returns an edge-insertion mutation.
func InsertEdge(u, v NodeID, w float64) Mutation {
	return Mutation{Op: MutInsertEdge, U: u, V: v, Weight: w}
}

// DeleteEdge returns an edge-deletion mutation.
func DeleteEdge(u, v NodeID) Mutation {
	return Mutation{Op: MutDeleteEdge, U: u, V: v}
}

// SetWeight returns a weight-change mutation.
func SetWeight(u, v NodeID, w float64) Mutation {
	return Mutation{Op: MutSetWeight, U: u, V: v, Weight: w}
}

// AddVertices returns a mutation appending count isolated vertices.
func AddVertices(count int) Mutation {
	return Mutation{Op: MutAddVertex, Count: count}
}

// pairKey normalizes an edge pair: undirected pairs store the smaller
// endpoint first so {u, v} and {v, u} address the same edge.
type pairKey struct{ u, v NodeID }

func (s *EdgeStore) key(u, v NodeID) pairKey {
	if !s.directed && u > v {
		u, v = v, u
	}
	return pairKey{u, v}
}

// EdgeStore is the mutable edge overlay behind a live graph: the full
// logical edge list plus a pair index, supporting edge insert/delete,
// weight change, and vertex addition. It is the source of truth a live
// backend rebuilds its immutable CSR Graph from — Build produces arrays
// byte-identical to a from-scratch Builder over the same edge multiset,
// because CSR adjacency is sorted by (target, weight) and therefore
// independent of edge order.
//
// Not safe for concurrent use; the live store serializes mutation batches.
type EdgeStore struct {
	directed bool
	n        int
	edges    []Edge
	// pos maps each normalized pair to its edge's position in edges, or
	// to -1 for a pair the seed graph recorded more than once.
	pos map[pairKey]int32
	// parallel holds the edges of the -1 pairs. No mutation can address
	// them, so the list is immutable and clones share it.
	parallel []Edge
}

// NewEdgeStore captures g's logical edges into a mutable store.
func NewEdgeStore(g *Graph) *EdgeStore {
	s := &EdgeStore{
		directed: g.Directed(),
		n:        g.N(),
		edges:    make([]Edge, 0, g.M()),
		pos:      make(map[pairKey]int32, g.M()),
	}
	g.Edges(func(e Edge) bool {
		k := s.key(e.From, e.To)
		p, seen := s.pos[k]
		if !seen {
			s.pos[k] = int32(len(s.edges))
			s.edges = append(s.edges, e)
			return true
		}
		if p >= 0 { // second copy: the first joins it on the side list
			s.parallel = append(s.parallel, s.edges[p])
			s.removeAt(p)
			s.pos[k] = -1
		}
		s.parallel = append(s.parallel, e)
		return true
	})
	return s
}

// N returns the node count.
func (s *EdgeStore) N() int { return s.n }

// M returns the logical edge count.
func (s *EdgeStore) M() int { return len(s.edges) + len(s.parallel) }

// Directed reports edge orientation.
func (s *EdgeStore) Directed() bool { return s.directed }

// Clone returns a copy that mutates independently. Mutation batches apply
// against a clone so a mid-batch validation failure leaves the store
// untouched.
func (s *EdgeStore) Clone() *EdgeStore {
	return &EdgeStore{
		directed: s.directed,
		n:        s.n,
		edges:    slices.Clone(s.edges),
		pos:      maps.Clone(s.pos),
		parallel: s.parallel,
	}
}

// checkEndpoints validates that both endpoints exist.
func (s *EdgeStore) checkEndpoints(u, v NodeID) error {
	if u < 0 || int(u) >= s.n || v < 0 || int(v) >= s.n {
		return fmt.Errorf("edge (%d,%d) references unknown node (n=%d): %w", u, v, s.n, ErrBadMutation)
	}
	return nil
}

func checkWeight(w float64) error {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("invalid weight %g: %w", w, ErrBadMutation)
	}
	return nil
}

// uniquePos resolves a pair to its single edge position, with the typed
// not-found/ambiguous errors.
func (s *EdgeStore) uniquePos(u, v NodeID) (int32, error) {
	p, ok := s.pos[s.key(u, v)]
	if !ok {
		return 0, fmt.Errorf("edge (%d,%d): %w", u, v, ErrEdgeNotFound)
	}
	if p < 0 {
		return 0, fmt.Errorf("edge (%d,%d) recorded more than once: %w", u, v, ErrAmbiguousEdge)
	}
	return p, nil
}

// Apply performs one mutation. On error the store is unchanged.
func (s *EdgeStore) Apply(m Mutation) error {
	switch m.Op {
	case MutInsertEdge:
		if err := s.checkEndpoints(m.U, m.V); err != nil {
			return err
		}
		if err := checkWeight(m.Weight); err != nil {
			return err
		}
		k := s.key(m.U, m.V)
		if _, ok := s.pos[k]; ok {
			return fmt.Errorf("edge (%d,%d): %w", m.U, m.V, ErrEdgeExists)
		}
		if !arcsFit(int64(s.M())+1, s.directed) {
			return fmt.Errorf("edge (%d,%d): %w (%w)", m.U, m.V, ErrTooLarge, ErrBadMutation)
		}
		s.pos[k] = int32(len(s.edges))
		s.edges = append(s.edges, Edge{From: m.U, To: m.V, Weight: m.Weight})
		return nil
	case MutDeleteEdge:
		if err := s.checkEndpoints(m.U, m.V); err != nil {
			return err
		}
		p, err := s.uniquePos(m.U, m.V)
		if err != nil {
			return err
		}
		delete(s.pos, s.key(m.U, m.V))
		s.removeAt(p)
		return nil
	case MutSetWeight:
		if err := s.checkEndpoints(m.U, m.V); err != nil {
			return err
		}
		if err := checkWeight(m.Weight); err != nil {
			return err
		}
		p, err := s.uniquePos(m.U, m.V)
		if err != nil {
			return err
		}
		s.edges[p].Weight = m.Weight
		return nil
	case MutAddVertex:
		count := m.Count
		if count <= 0 {
			count = 1
		}
		if s.n+count > math.MaxInt32 {
			return fmt.Errorf("vertex count %d+%d overflows node ids: %w", s.n, count, ErrBadMutation)
		}
		s.n += count
		return nil
	}
	return fmt.Errorf("op %d: %w", m.Op, ErrBadMutation)
}

// removeAt deletes the edge at position p by swap-remove, re-pointing the
// pair of the edge moved into the hole; the caller updates the removed
// edge's own pair. Edge order does not matter: Build sorts adjacency by
// (target, weight) regardless.
func (s *EdgeStore) removeAt(p int32) {
	last := int32(len(s.edges) - 1)
	if p != last {
		moved := s.edges[last]
		s.edges[p] = moved
		s.pos[s.key(moved.From, moved.To)] = p
	}
	s.edges = s.edges[:last]
}

// Build materializes the current edge set as an immutable Graph,
// byte-identical to a from-scratch Builder over the same edges.
func (s *EdgeStore) Build() *Graph {
	edges := s.edges
	if len(s.parallel) > 0 {
		edges = slices.Concat(s.edges, s.parallel)
	}
	return newGraph(s.n, edges, s.directed)
}

// WeightOnly reports whether every mutation in the batch is a weight
// change — the precondition for the in-place CSR patch path (PatchWeight):
// topology is untouched, so adjacency spans and node count all stay
// valid.
func WeightOnly(ms []Mutation) bool {
	for _, m := range ms {
		if m.Op != MutSetWeight {
			return false
		}
	}
	return true
}

// PatchWeight updates the weight of edge (u, v) in place in g's arc slabs
// (forward and reverse), producing arrays byte-identical to a rebuild
// with the new weight. It is only sound when the pair maps to a single
// logical edge (EdgeStore.Apply validates that before calling) —
// adjacency is sorted by (target, weight), so an arc whose target is
// unique in its span keeps its position under any weight.
//
// Callers must guarantee exclusive access: no traversal may be running
// (the live store's epoch barrier holds every reader out while patching).
func (g *Graph) PatchWeight(u, v NodeID, w float64) {
	g.fwd.patch(u, v, w)
	if g.directed || u != v {
		// The reverse arc; for an undirected graph the mirror arc in the
		// same slab (a self-loop's two arcs were both patched above).
		g.rev.patch(v, u, w)
	}
}
