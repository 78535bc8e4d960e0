package cluster

import (
	"fmt"
	"sort"

	"rkranks/internal/graph"
)

// A Partitioner splits a graph's vertex set into disjoint shards. Shards
// partition the CANDIDATE class only: every shard still holds the whole
// graph (ranks are global shortest-path properties and cannot be computed
// from a subgraph), and returns its own vertices alone (see the package
// docs for the work each shard does per query).
type Partitioner interface {
	// Name is the canonical partitioner name ("modulo", "degree").
	Name() string
	// Masks returns one candidate mask per shard. The masks are disjoint
	// and cover every node, and the assignment is deterministic: every
	// process partitioning the same graph the same way agrees on shard
	// ownership, which is what lets remote rkserve shards be booted
	// independently with just a -shard i/P flag.
	Masks(g *graph.Graph, shards int) [][]bool
}

// Modulo assigns node v to shard v % P: zero-state, O(N), and perfectly
// balanced by node count. Degree skew (power-law graphs) can still leave
// one shard with most of the refinement work; DegreeBalanced addresses
// that.
type Modulo struct{}

// Name implements Partitioner.
func (Modulo) Name() string { return "modulo" }

// Masks implements Partitioner.
func (Modulo) Masks(g *graph.Graph, shards int) [][]bool {
	masks := newMasks(g.N(), shards)
	for v := 0; v < g.N(); v++ {
		masks[v%shards][v] = true
	}
	return masks
}

// DegreeBalanced assigns nodes to shards by greedy longest-processing-time
// scheduling on degree: nodes in decreasing degree order (ties by id) go
// to the shard with the smallest accumulated degree (ties by shard id).
// Refinement cost correlates with how central a candidate is, so balancing
// total degree balances per-shard query work far better than node counts
// on power-law graphs — the same motivation as ReHub's balanced hub
// partitions.
type DegreeBalanced struct{}

// Name implements Partitioner.
func (DegreeBalanced) Name() string { return "degree" }

// Masks implements Partitioner.
func (DegreeBalanced) Masks(g *graph.Graph, shards int) [][]bool {
	n := g.N()
	deg := make([]int64, n)
	for v := 0; v < n; v++ {
		deg[v] = int64(g.OutDegree(int32(v)))
		if g.Directed() {
			deg[v] += int64(g.InDegree(int32(v)))
		}
	}
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if deg[a] != deg[b] {
			return deg[a] > deg[b]
		}
		return a < b
	})
	masks := newMasks(n, shards)
	load := make([]int64, shards)
	for _, v := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		masks[best][v] = true
		// The +1 keeps zero-degree nodes spreading round-robin instead of
		// all landing on shard 0.
		load[best] += deg[v] + 1
	}
	return masks
}

func newMasks(n, shards int) [][]bool {
	if shards < 1 {
		panic(fmt.Sprintf("cluster: shard count %d < 1", shards))
	}
	masks := make([][]bool, shards)
	for i := range masks {
		masks[i] = make([]bool, n)
	}
	return masks
}

// ParsePartitioner resolves a user-facing name.
func ParsePartitioner(name string) (Partitioner, error) {
	switch name {
	case "", "modulo":
		return Modulo{}, nil
	case "degree":
		return DegreeBalanced{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown partitioner %q (want modulo|degree)", name)
}

// ShardMask returns the candidate mask of one shard, optionally
// intersected with a global candidate class (bichromatic queries): a node
// is a candidate of shard i iff the partitioner assigns it there AND the
// global class admits it.
func ShardMask(g *graph.Graph, p Partitioner, shards, shard int, global []bool) ([]bool, error) {
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("cluster: shard %d out of range [0,%d)", shard, shards)
	}
	if global != nil && len(global) != g.N() {
		return nil, fmt.Errorf("cluster: global candidate mask covers %d nodes, graph has %d", len(global), g.N())
	}
	mask := p.Masks(g, shards)[shard]
	if global != nil {
		for v := range mask {
			mask[v] = mask[v] && global[v]
		}
	}
	return mask, nil
}
