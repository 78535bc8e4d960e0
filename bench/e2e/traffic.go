package main

import (
	"math/rand"

	"rkranks/internal/api"
	"rkranks/internal/graph"
)

// request is one call the driver sends: a /v1/query, or a /v1/mutate
// batch when muts is set.
type request struct {
	algo api.Algorithm
	q    int32
	k    int
	muts []graph.Mutation
}

// replayCount is how many seeded queries are replayed after the timed
// phases and diffed against a fresh single-node Dynamic engine.
const replayCount = 64

// zipfS skews the hot workloads: a few nodes draw most queries, so most
// answers come from the response cache.
const zipfS = 1.1

// datasetSeed fixes what belongs to the dataset, like its edges, rather
// than to one run's traffic: which nodes are popular in the Zipf
// workloads, and the query set of the uniform ones, whose per-node cost is
// heavy-tailed (a few queries refine thousands of candidates). The
// traffic seed draws the arrival sequence, so runs with different seeds
// measure the same hot set and the same heavy queries.
const datasetSeed = 1

// zipfNodes draws query nodes Zipf(zipfS)-distributed over the popularity
// order, so the popular nodes are not simply the low ids.
type zipfNodes struct {
	perm []int
	z    *rand.Zipf
}

func newZipfNodes(rng *rand.Rand, n int) *zipfNodes {
	perm := rand.New(rand.NewSource(datasetSeed)).Perm(n)
	return &zipfNodes{perm: perm, z: rand.NewZipf(rng, zipfS, 1, uint64(n-1))}
}

func (z *zipfNodes) next() int32 { return int32(z.perm[z.z.Uint64()]) }

// hotStream is serve-hot's traffic: Zipf nodes, k=10, indexed 50% /
// hublabel 30% / dynamic 20%.
func hotStream(g *graph.Graph, rng *rand.Rand, count int) []request {
	nodes := newZipfNodes(rng, g.N())
	out := make([]request, count)
	for i := range out {
		algo := api.AlgoDynamic
		switch x := rng.Float64(); {
		case x < 0.5:
			algo = api.AlgoIndexed
		case x < 0.8:
			algo = api.AlgoHubLabel
		}
		out[i] = request{algo: algo, q: nodes.next(), k: 10}
	}
	return out
}

// deepIndexed is serve-deep's share of indexed queries; the rest are
// hublabel. At k=100 an indexed query takes about 2 ms and a hublabel
// one about 15, with little between. An even mix would put the p50 in
// that gap, where it jumps between the two modes with the few queries
// near it; at 40% it lies among the hublabel queries.
const deepIndexed = 0.4

// deepStream is serve-deep's traffic: uniform (node, algorithm) pairs
// drawn without repetition, so the cache never answers, at k=100,
// indexed and hublabel mixed by deepIndexed. Graphs too small for count
// distinct pairs wrap around.
func deepStream(g *graph.Graph, rng *rand.Rand, count int) []request {
	algos := [2]api.Algorithm{api.AlgoIndexed, api.AlgoHubLabel}
	nodes := [2][]int{rng.Perm(g.N()), rng.Perm(g.N())}
	var used [2]int
	out := make([]request, count)
	for i := range out {
		a := 1
		if rng.Float64() < deepIndexed {
			a = 0
		}
		out[i] = request{algo: algos[a], q: int32(nodes[a][used[a]%g.N()]), k: 100}
		used[a]++
	}
	return out
}

// scatterStream is cluster-scatter's traffic: uniform nodes, indexed,
// k=10.
func scatterStream(g *graph.Graph, rng *rand.Rand, count int) []request {
	out := make([]request, count)
	for i := range out {
		out[i] = request{algo: api.AlgoIndexed, q: int32(rng.Intn(g.N())), k: 10}
	}
	return out
}

// Mutation mix of live-churn: every mutateEvery-th request is a batch;
// of these, toggleEvery-1 in toggleEvery set patchOps weights in place,
// and the rest insert or delete one pair absent from the boot graph,
// which forces a rebuild.
const (
	mutateEvery = 50
	toggleEvery = 8
	patchOps    = 8
	togglePairs = 64
)

// churnStream is live-churn's traffic: Zipf nodes, dynamic, k=10, with
// mutation batches interleaved. SetWeight and DeleteEdge only ever name
// pairs that hold exactly one edge (the road generator emits some
// parallel edges, which those ops reject as ambiguous), and inserts only
// name pairs absent from g, so no batch can fail. A toggled pair is
// reused only togglePairs toggles later, long after its previous batch
// has applied.
func churnStream(g *graph.Graph, rng *rand.Rand, count int) []request {
	type pair struct{ u, v int32 }
	edges := map[pair]int{}
	g.Edges(func(e graph.Edge) bool {
		u, v := e.From, e.To
		if !g.Directed() && u > v {
			u, v = v, u
		}
		edges[pair{u, v}]++
		return true
	})
	var single []pair
	g.Edges(func(e graph.Edge) bool { // CSR order: deterministic
		u, v := e.From, e.To
		if !g.Directed() && u > v {
			u, v = v, u
		}
		if edges[pair{u, v}] == 1 {
			single = append(single, pair{u, v})
		}
		return true
	})
	toggles := make([]pair, 0, togglePairs)
	for len(toggles) < togglePairs {
		u, v := int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))
		if !g.Directed() && u > v {
			u, v = v, u
		}
		if u == v || edges[pair{u, v}] != 0 {
			continue
		}
		edges[pair{u, v}] = -1 // claimed as a toggle pair
		toggles = append(toggles, pair{u, v})
	}
	present := make([]bool, togglePairs)
	weight := func() float64 { return 0.5 + rng.Float64() } // the road generator's travel times

	nodes := newZipfNodes(rng, g.N())
	out := make([]request, count)
	batch, toggled := 0, 0
	for i := range out {
		if i%mutateEvery != mutateEvery-1 {
			out[i] = request{algo: api.AlgoDynamic, q: nodes.next(), k: 10}
			continue
		}
		var ms []graph.Mutation
		if batch%toggleEvery == toggleEvery-1 {
			j := toggled % togglePairs
			p := toggles[j]
			if present[j] {
				ms = []graph.Mutation{graph.DeleteEdge(p.u, p.v)}
			} else {
				ms = []graph.Mutation{graph.InsertEdge(p.u, p.v, weight())}
			}
			present[j] = !present[j]
			toggled++
		} else {
			for range patchOps {
				p := single[rng.Intn(len(single))]
				ms = append(ms, graph.SetWeight(p.u, p.v, weight()))
			}
		}
		out[i] = request{muts: ms}
		batch++
	}
	return out
}

// distinct lists the queries of reqs once each, in order of first
// appearance, leaving out mutation batches.
func distinct(reqs []request) []request {
	type key struct {
		algo api.Algorithm
		q    int32
		k    int
	}
	seen := map[key]bool{}
	var out []request
	for _, r := range reqs {
		if kk := (key{r.algo, r.q, r.k}); r.muts == nil && !seen[kk] {
			seen[kk] = true
			out = append(out, r)
		}
	}
	return out
}

// replayStream draws the verification queries: the workload's own query
// distribution, without mutations.
func replayStream(stream func(*graph.Graph, *rand.Rand, int) []request, g *graph.Graph, seed int64) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]request, 0, replayCount)
	for len(out) < replayCount {
		for _, r := range stream(g, rng, replayCount) {
			if r.muts == nil && len(out) < replayCount {
				out = append(out, r)
			}
		}
	}
	return out
}
