// Package graph provides the weighted-graph substrate used by every engine
// in this repository: a compact CSR (compressed sparse row) representation
// of a directed or undirected graph with non-negative float64 edge weights,
// an incremental Builder, transpose views, and text/binary serialization.
//
// Node identifiers are dense int32 values in [0, N). Optional string labels
// can be attached for human-facing tools; all algorithms operate on ids.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

var (
	// ErrTooLarge reports a graph whose arc count does not fit the int32
	// CSR offsets (an undirected edge stores two arcs).
	ErrTooLarge = errors.New("graph: arc count overflows int32 offsets")
	// ErrFormat reports input ReadText or ReadBinary cannot decode: bad
	// syntax, a corrupt or truncated binary file, or an invalid value.
	ErrFormat = errors.New("graph: malformed input")
)

// NodeID identifies a node. IDs are dense: a graph with N nodes uses ids
// 0..N-1.
type NodeID = int32

// Edge is a single weighted edge, used by the Builder and by iteration
// helpers. For undirected graphs an Edge represents the unordered pair
// {From, To}.
type Edge struct {
	From   NodeID
	To     NodeID
	Weight float64
}

// Graph is an immutable weighted graph in CSR form. Use a Builder, or
// ReadText/ReadBinary, to construct one.
//
// Each orientation is stored exactly once, as a CSR built at construction
// and freed with the graph. For undirected graphs every edge appears in
// both adjacency lists and the reverse CSR is the forward one. For
// directed graphs the transpose CSR is materialized at construction, so
// reverse traversals (needed by the SDS-tree, which explores distances
// *to* the query node) are as cheap as forward ones.
type Graph struct {
	directed bool
	numEdges int64 // logical edge count (each undirected edge counted once)

	fwd *CSR
	rev *CSR // == fwd for undirected graphs

	labels   []string
	labelIdx map[string]NodeID
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.fwd.N() }

// M returns the number of logical edges (an undirected edge counts once).
func (g *Graph) M() int64 { return g.numEdges }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// OutDegree returns the out-degree of u (degree, for undirected graphs).
func (g *Graph) OutDegree(u NodeID) int { return g.fwd.Degree(u) }

// InDegree returns the in-degree of u (degree, for undirected graphs).
func (g *Graph) InDegree(u NodeID) int { return g.rev.Degree(u) }

// Neighbors returns the forward out-arcs of u, sorted by (target,
// weight). The slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(u NodeID) []Arc { return g.fwd.Arcs(u) }

// RNeighbors returns the reverse adjacency of u (the adjacency of u in the
// transpose graph G^T). For undirected graphs this is identical to
// Neighbors. The slice aliases internal storage.
func (g *Graph) RNeighbors(u NodeID) []Arc { return g.rev.Arcs(u) }

// CSR returns the forward and reverse CSR views of g; for undirected
// graphs the reverse view is the forward one. Every engine, pool slot and
// shard over g shares these views.
func (g *Graph) CSR() (fwd, rev *CSR) { return g.fwd, g.rev }

// CSRBytes reports the memory footprint of g's CSR views.
func (g *Graph) CSRBytes() int64 {
	if g.directed {
		return g.fwd.Bytes() + g.rev.Bytes()
	}
	return g.fwd.Bytes()
}

// Clone returns a copy of g whose arc slabs are its own, so PatchWeight on
// one leaves the other untouched. The offsets and labels, which nothing
// mutates, are shared.
func (g *Graph) Clone() *Graph {
	cp := *g
	cp.fwd = &CSR{offsets: g.fwd.offsets, arcs: slices.Clone(g.fwd.arcs)}
	cp.rev = cp.fwd
	if g.directed {
		cp.rev = &CSR{offsets: g.rev.offsets, arcs: slices.Clone(g.rev.arcs)}
	}
	return &cp
}

// HasLabels reports whether nodes carry string labels.
func (g *Graph) HasLabels() bool { return g.labels != nil }

// Label returns the label of u, or its decimal id when no labels are set.
func (g *Graph) Label(u NodeID) string {
	if g.labels == nil {
		return fmt.Sprintf("%d", u)
	}
	return g.labels[u]
}

// NodeByLabel returns the node with the given label.
func (g *Graph) NodeByLabel(label string) (NodeID, bool) {
	id, ok := g.labelIdx[label]
	return id, ok
}

// Edges calls fn for every logical edge. For undirected graphs each edge is
// reported once with From < To (self-loops with From == To). Iteration stops
// early if fn returns false.
func (g *Graph) Edges(fn func(Edge) bool) {
	for u := int32(0); int(u) < g.N(); u++ {
		selfParity := false
		for _, a := range g.fwd.Arcs(u) {
			if !g.directed && a.To < u {
				continue // reported from the smaller endpoint
			}
			if !g.directed && a.To == u {
				// An undirected self-loop stores two identical parity arcs
				// in this span; report the logical edge once.
				selfParity = !selfParity
				if !selfParity {
					continue
				}
			}
			if !fn(Edge{From: u, To: a.To, Weight: a.W}) {
				return
			}
		}
	}
}

// TotalWeight returns the sum of all logical edge weights.
func (g *Graph) TotalWeight() float64 {
	var sum float64
	g.Edges(func(e Edge) bool { sum += e.Weight; return true })
	return sum
}

// MaxOutDegreeNode returns the node with the largest out-degree (smallest id
// wins ties) and that degree. It returns (0, 0) for an empty graph.
func (g *Graph) MaxOutDegreeNode() (NodeID, int) {
	best, bestDeg := NodeID(0), -1
	for u := 0; u < g.N(); u++ {
		if d := g.OutDegree(int32(u)); d > bestDeg {
			best, bestDeg = int32(u), d
		}
	}
	if bestDeg < 0 {
		return 0, 0
	}
	return best, bestDeg
}

// Validate checks structural invariants: offset monotonicity, target
// range, non-negative finite weights, spans sorted by (target, weight),
// a logical edge count matching the arcs, and that the reverse CSR is
// the transpose of the forward one — for an
// undirected graph, that the adjacency is symmetric with every self-loop
// stored as a pair of arcs. It returns nil when the graph is well-formed.
func (g *Graph) Validate() error {
	if err := g.fwd.validate(); err != nil {
		return fmt.Errorf("forward CSR: %w", err)
	}
	if want := edgesIn(int64(g.fwd.NumArcs()), g.directed); g.numEdges != want {
		return fmt.Errorf("%d logical edges, want %d for %d arcs", g.numEdges, want, g.fwd.NumArcs())
	}
	if !g.directed {
		if !g.fwd.symmetric() {
			return errors.New("undirected adjacency is not symmetric")
		}
		return nil
	}
	if !g.rev.equal(transpose(g.fwd)) {
		return errors.New("reverse CSR is not the transpose of the forward CSR")
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// builds an undirected graph; use NewBuilder to pick directedness. Builders
// are not safe for concurrent use.
type Builder struct {
	directed bool
	n        int32
	edges    []Edge
	labels   []string
	labelIdx map[string]NodeID
	dedupe   bool
}

// NewBuilder returns a Builder for a graph with the given directedness.
func NewBuilder(directed bool) *Builder {
	return &Builder{directed: directed}
}

// SetDedupe controls duplicate-edge handling at Finalize time. When enabled,
// parallel edges between the same ordered pair collapse to the minimum
// weight (the only weight shortest-path computations can observe).
func (b *Builder) SetDedupe(on bool) { b.dedupe = on }

// EnsureNodes grows the node count to at least n.
func (b *Builder) EnsureNodes(n int) {
	if int32(n) > b.n {
		b.n = int32(n)
	}
}

// AddNode appends a fresh node and returns its id.
func (b *Builder) AddNode() NodeID {
	id := b.n
	b.n++
	return id
}

// AddLabeledNode appends a fresh node with a label, returning the existing
// node when the label was already registered.
func (b *Builder) AddLabeledNode(label string) NodeID {
	if b.labelIdx == nil {
		b.labelIdx = make(map[string]NodeID)
	}
	if id, ok := b.labelIdx[label]; ok {
		return id
	}
	id := b.AddNode()
	for int32(len(b.labels)) < id {
		b.labels = append(b.labels, fmt.Sprintf("%d", len(b.labels)))
	}
	b.labels = append(b.labels, label)
	b.labelIdx[label] = id
	return id
}

// AddEdge records an edge. Endpoints must already exist (via AddNode,
// AddLabeledNode, or EnsureNodes). Weights must be non-negative and finite.
// It returns an error wrapping ErrTooLarge once the graph's arc count would
// pass math.MaxInt32.
func (b *Builder) AddEdge(u, v NodeID, w float64) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("edge (%d,%d) references unknown node (n=%d)", u, v, b.n)
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("edge (%d,%d) has invalid weight %g", u, v, w)
	}
	if !arcsFit(int64(len(b.edges))+1, b.directed) {
		return fmt.Errorf("edge (%d,%d): %w", u, v, ErrTooLarge)
	}
	b.edges = append(b.edges, Edge{From: u, To: v, Weight: w})
	return nil
}

// MustAddEdge is AddEdge that panics on error; intended for tests and
// generators that construct edges programmatically.
func (b *Builder) MustAddEdge(u, v NodeID, w float64) {
	if err := b.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// N returns the current node count.
func (b *Builder) N() int { return int(b.n) }

// NumEdges returns the number of edges recorded so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Finalize builds the immutable Graph. The Builder may be reused afterwards
// (its recorded edges are copied out, not shared).
func (b *Builder) Finalize() *Graph {
	edges := b.edges
	if b.dedupe {
		edges = dedupeEdges(edges, b.directed)
	}
	g := newGraph(int(b.n), edges, b.directed)
	if b.labels != nil {
		for int32(len(b.labels)) < b.n {
			b.labels = append(b.labels, fmt.Sprintf("%d", len(b.labels)))
		}
		g.labels = append([]string(nil), b.labels...)
		g.labelIdx = make(map[string]NodeID, len(g.labels))
		for i, l := range g.labels {
			g.labelIdx[l] = int32(i)
		}
	}

	return g
}

// newGraph builds the CSR views of n nodes over an edge list whose arc
// count fits int32 offsets.
func newGraph(n int, edges []Edge, directed bool) *Graph {
	g := &Graph{directed: directed, numEdges: int64(len(edges)), fwd: buildCSR(n, edges, directed)}
	g.rev = g.fwd
	if directed {
		g.rev = transpose(g.fwd)
	}
	return g
}

func dedupeEdges(edges []Edge, directed bool) []Edge {
	type key struct{ u, v NodeID }
	best := make(map[key]float64, len(edges))
	order := make([]key, 0, len(edges))
	for _, e := range edges {
		u, v := e.From, e.To
		if !directed && u > v {
			u, v = v, u
		}
		k := key{u, v}
		if w, ok := best[k]; !ok {
			best[k] = e.Weight
			order = append(order, k)
		} else if e.Weight < w {
			best[k] = e.Weight
		}
	}
	out := make([]Edge, 0, len(order))
	for _, k := range order {
		out = append(out, Edge{From: k.u, To: k.v, Weight: best[k]})
	}
	return out
}
