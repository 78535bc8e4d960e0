package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Arc is one out-arc: target and weight interleaved, so the Dijkstra
// expand loop streams a single 16-byte-stride array instead of chasing two
// parallel slices (one int32 stream, one float64 stream) through the cache.
type Arc struct {
	To int32
	W  float64
}

// compareArcs orders arcs by (target, weight), the order of every
// adjacency span.
func compareArcs(a, b Arc) int {
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	return cmp.Compare(a.W, b.W)
}

// CSR is the compressed-sparse-row adjacency of one orientation of a
// Graph: flat []int32 offsets plus an interleaved Arc slab, each node's
// span sorted by (target, weight). It is the Graph's only adjacency
// storage; the offsets never change after construction, and the slab
// changes only through Graph.PatchWeight.
type CSR struct {
	offsets []int32
	arcs    []Arc
}

// N returns the number of nodes.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// NumArcs returns the number of stored arcs (undirected edges count twice).
func (c *CSR) NumArcs() int { return len(c.arcs) }

// Arcs returns the out-arcs of u. The slice aliases internal storage and
// must not be modified.
func (c *CSR) Arcs(u int32) []Arc {
	return c.arcs[c.offsets[u]:c.offsets[u+1]]
}

// Degree returns the out-degree of u.
func (c *CSR) Degree(u int32) int {
	return int(c.offsets[u+1] - c.offsets[u])
}

// Bytes returns the memory footprint of the offsets and the arc slab.
func (c *CSR) Bytes() int64 {
	if c == nil {
		return 0
	}
	return int64(len(c.offsets))*4 + int64(len(c.arcs))*16
}

// arcsFit reports whether m logical edges fit int32 offsets: an
// undirected edge stores two arcs.
func arcsFit(m int64, directed bool) bool {
	if !directed {
		m *= 2
	}
	return m <= math.MaxInt32
}

// edgesIn returns the logical edge count of a graph storing arcs arcs (an
// odd undirected count fails the symmetry check).
func edgesIn(arcs int64, directed bool) int64 {
	if directed {
		return arcs
	}
	return arcs / 2
}

// buildCSR assembles the forward CSR of n nodes from an edge list. For
// undirected graphs each edge contributes an arc in both directions (an
// undirected self-loop stores two identical arcs in one span). The caller
// guarantees the arc count fits int32 offsets.
func buildCSR(n int, edges []Edge, directed bool) *CSR {
	c := &CSR{offsets: make([]int32, n+1)}
	for _, e := range edges {
		c.offsets[e.From+1]++
		if !directed {
			c.offsets[e.To+1]++
		}
	}
	for i := 0; i < n; i++ {
		c.offsets[i+1] += c.offsets[i]
	}
	c.arcs = make([]Arc, c.offsets[n])
	next := slices.Clone(c.offsets[:n])
	for _, e := range edges {
		c.arcs[next[e.From]] = Arc{To: e.To, W: e.Weight}
		next[e.From]++
		if !directed {
			c.arcs[next[e.To]] = Arc{To: e.From, W: e.Weight}
			next[e.To]++
		}
	}
	for u := 0; u < n; u++ {
		if span := c.arcs[c.offsets[u]:c.offsets[u+1]]; len(span) > 1 {
			slices.SortFunc(span, compareArcs)
		}
	}
	return c
}

// transpose returns the CSR with every arc reversed. Sources are visited
// in id order and each span in (target, weight) order, so when c's spans
// are sorted the transposed spans come out sorted by (source, weight)
// without a sort.
func transpose(c *CSR) *CSR {
	n := c.N()
	t := &CSR{offsets: make([]int32, n+1), arcs: make([]Arc, len(c.arcs))}
	for _, a := range c.arcs {
		t.offsets[a.To+1]++
	}
	for i := 0; i < n; i++ {
		t.offsets[i+1] += t.offsets[i]
	}
	next := slices.Clone(t.offsets[:n])
	for u := int32(0); int(u) < n; u++ {
		for _, a := range c.Arcs(u) {
			t.arcs[next[a.To]] = Arc{To: u, W: a.W}
			next[a.To]++
		}
	}
	return t
}

// validate checks offset monotonicity, target range, non-negative finite
// weights, and (target, weight) order within every span.
func (c *CSR) validate() error {
	n := c.N()
	if n < 0 || c.offsets[0] != 0 {
		return errors.New("offsets[0] != 0")
	}
	for i := 0; i < n; i++ {
		if c.offsets[i+1] < c.offsets[i] {
			return fmt.Errorf("offsets not monotone at %d", i)
		}
	}
	if got := c.offsets[n]; int(got) != len(c.arcs) {
		return fmt.Errorf("offsets[n]=%d, want %d arcs", got, len(c.arcs))
	}
	for u := int32(0); int(u) < n; u++ {
		span := c.Arcs(u)
		for i, a := range span {
			if a.To < 0 || int(a.To) >= n {
				return fmt.Errorf("node %d: target %d out of range", u, a.To)
			}
			if a.W < 0 || math.IsNaN(a.W) || math.IsInf(a.W, 0) {
				return fmt.Errorf("node %d: invalid weight %g", u, a.W)
			}
			if i > 0 && compareArcs(span[i-1], a) > 0 {
				return fmt.Errorf("node %d: adjacency not sorted by (target, weight)", u)
			}
		}
	}
	return nil
}

// symmetric reports whether c has the shape buildCSR gives an undirected
// graph: it is its own transpose, and every self-loop is a pair of
// identical arcs.
func (c *CSR) symmetric() bool {
	if !c.equal(transpose(c)) {
		return false
	}
	for u := int32(0); int(u) < c.N(); u++ {
		span := c.Arcs(u)
		for i := 0; i < len(span); {
			j := i + 1
			for j < len(span) && span[j] == span[i] {
				j++
			}
			if span[i].To == u && (j-i)%2 != 0 {
				return false
			}
			i = j
		}
	}
	return true
}

// equal reports whether c and d store the same offsets and arcs.
func (c *CSR) equal(d *CSR) bool {
	return slices.Equal(c.offsets, d.offsets) && slices.Equal(c.arcs, d.arcs)
}

// patch sets the weight of every arc u->v (several only for the two arcs
// of an undirected self-loop).
func (c *CSR) patch(u, v NodeID, w float64) {
	span := c.Arcs(u)
	for i := range span {
		if span[i].To == v {
			span[i].W = w
		}
	}
}
