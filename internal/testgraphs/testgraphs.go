// Package testgraphs provides shared test fixtures, most importantly the
// paper's running example (Figure 1): seven researchers whose full rank
// matrix is published as Table 1, giving us exact golden values for every
// rank computation and for the worked reverse k-ranks queries.
package testgraphs

import "rkranks/internal/graph"

// Toy node ids, in the column order of Table 1 of the paper.
const (
	Alice = int32(iota)
	Bob
	Caroline
	Sid
	Eric
	Frank
	George
)

// ToyNames maps toy node ids to the paper's researcher names.
var ToyNames = []string{"Alice", "Bob", "Caroline", "Sid", "Eric", "Frank", "George"}

// Toy reconstructs the Figure-1 graph. The edge weights below reproduce the
// paper's Table 1 rank matrix exactly, including both tie groups
// (Bob/Caroline tie at rank 2 from Sid; Sid/George distances from Alice are
// 2.2 vs 2.3).
func Toy() *graph.Graph {
	b := graph.NewBuilder(false)
	for _, name := range ToyNames {
		b.AddLabeledNode(name)
	}
	edges := []struct {
		u, v int32
		w    float64
	}{
		{Alice, Bob, 1.0},
		{Bob, Eric, 0.2},
		{Bob, Caroline, 0.3},
		{Caroline, Sid, 1.2},
		{Eric, Frank, 0.9},
		{Eric, Sid, 1.0},
		{Eric, George, 1.1},
		{Frank, George, 0.2},
	}
	for _, e := range edges {
		b.MustAddEdge(e.u, e.v, e.w)
	}
	return b.Finalize()
}

// ToyRankMatrix is Table 1 of the paper: entry [s][t] is Rank(s, t), with 0
// on the diagonal (a node does not rank itself).
var ToyRankMatrix = [][]int32{
	//          Alice Bob Caroline Sid Eric Frank George
	/*Alice*/ {0, 1, 3, 5, 2, 4, 6},
	/*Bob*/ {3, 0, 2, 5, 1, 4, 6},
	/*Caroline*/ {4, 1, 0, 3, 2, 5, 6},
	/*Sid*/ {6, 2, 2, 0, 1, 4, 5},
	/*Eric*/ {6, 1, 2, 4, 0, 3, 5},
	/*Frank*/ {6, 3, 4, 5, 2, 0, 1},
	/*George*/ {6, 3, 4, 5, 2, 1, 0},
}

// Path returns a weighted path graph 0-1-2-...-(n-1) with unit weights.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(false)
	b.EnsureNodes(n)
	for i := 0; i+1 < n; i++ {
		b.MustAddEdge(int32(i), int32(i+1), 1)
	}
	return b.Finalize()
}

// Star returns a star graph: node 0 connected to 1..n-1 with the given
// weights (len(weights) == n-1).
func Star(weights []float64) *graph.Graph {
	b := graph.NewBuilder(false)
	b.EnsureNodes(len(weights) + 1)
	for i, w := range weights {
		b.MustAddEdge(0, int32(i+1), w)
	}
	return b.Finalize()
}

// TiedGrid returns an undirected rows x cols grid whose edge weights
// cycle through 0, 1 and 2: zero-weight edges and many equal-distance
// ties, the inputs on which settle order and tie-breaking decide what a
// builder produces.
func TiedGrid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(false)
	b.EnsureNodes(rows * cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.MustAddEdge(id(r, c), id(r, c+1), float64((r+2*c)%3))
			}
			if r+1 < rows {
				b.MustAddEdge(id(r, c), id(r+1, c), float64((2*r+c)%3))
			}
		}
	}
	return b.Finalize()
}

// Cycle returns a directed cycle 0 -> 1 -> ... -> n-1 -> 0 with unit
// weights.
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder(true)
	b.EnsureNodes(n)
	for i := 0; i < n; i++ {
		b.MustAddEdge(int32(i), int32((i+1)%n), 1)
	}
	return b.Finalize()
}
