package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
	"rkranks/internal/sssp"
)

// checkValidResult asserts that res is a correct reverse k-ranks answer per
// Definition 2: every reported rank is truthful (re-verified from scratch),
// the result has the right size, and the multiset of ranks matches the
// oracle's (tie groups may resolve to different nodes; any resolution is a
// valid answer).
func checkValidResult(t *testing.T, g *graph.Graph, label string, res *Result, oracle []rank.Entry) {
	t.Helper()
	if len(res.Entries) != len(oracle) {
		t.Fatalf("%s: got %d entries, want %d (got %v, oracle %v)",
			label, len(res.Entries), len(oracle), res.Entries, oracle)
	}
	s := sssp.New(g)
	for i, e := range res.Entries {
		if truth := rank.Of(s, e.Node, res.Query); truth != e.Rank {
			t.Errorf("%s: entry %d reports Rank(%d,%d)=%d, truth %d",
				label, i, e.Node, res.Query, e.Rank, truth)
		}
		if i > 0 && !lessEntry(res.Entries[i-1], e) {
			t.Errorf("%s: entries not in (rank, node) order at %d: %v", label, i, res.Entries)
		}
	}
	for i := range oracle {
		if res.Entries[i].Rank != oracle[i].Rank {
			t.Fatalf("%s: rank multiset mismatch at %d: got %v, oracle %v",
				label, i, res.Entries, oracle)
		}
	}
}

func lessEntry(a, b rank.Entry) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Node < b.Node
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"undirected-sparse": gen.GNM(60, 90, false, 1),
		"undirected-dense":  gen.GNM(50, 400, false, 2),
		"directed-sparse":   gen.GNM(60, 150, true, 3),
		"directed-dense":    gen.GNM(40, 400, true, 4),
		"disconnected":      gen.GNM(70, 45, false, 5),
		"dblp-like":         gen.DBLPLike(gen.DBLPLikeParams{Nodes: 80, AttachPerNode: 3, Seed: 6}),
		"epinions-like":     gen.EpinionsLike(gen.EpinionsLikeParams{Nodes: 80, OutPerNode: 3, BackEdgeProb: 0.3, Seed: 7}),
	}
}

// TestEnginesMatchOracle verifies every engine against the brute-force
// oracle on a spread of random topologies, query nodes, and k values.
func TestEnginesMatchOracle(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(g, Options{})
			maxK := 12
			ix, err := ridx.Build(g, ridx.BuildParams{
				Hubs: hub.Select(g, hub.DegreeFirst, g.N()/10+1, hub.Options{Seed: 9}),
				M:    g.N() / 5,
				K:    maxK,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.SetIndex(ix)
			for q := int32(0); q < int32(g.N()); q += 7 {
				for _, k := range []int{1, 2, 5, maxK} {
					oracle := rank.BruteForceReverse(g, q, k)
					for _, algo := range []Algorithm{Naive, Static, Dynamic, Indexed} {
						res, err := e.Query(algo, q, k)
						if err != nil {
							t.Fatalf("%v q=%d k=%d: %v", algo, q, k, err)
						}
						checkValidResult(t, g, fmt.Sprintf("%s/%v q=%d k=%d", name, algo, q, k), res, oracle)
					}
				}
			}
		})
	}
}

// TestBoundStrategiesMatchOracle runs the dynamic engine under each Table
// 12/13 bound ablation and checks validity: weaker bounds must never change
// answers, only work.
func TestBoundStrategiesMatchOracle(t *testing.T) {
	g := gen.GNM(70, 200, false, 11)
	for _, spec := range []string{"parent", "count", "height", "three"} {
		b, err := ParseBounds(spec)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(g, Options{Bounds: b})
		for q := int32(0); q < int32(g.N()); q += 5 {
			for _, k := range []int{1, 3, 8} {
				oracle := rank.BruteForceReverse(g, q, k)
				res, err := e.Query(Dynamic, q, k)
				if err != nil {
					t.Fatal(err)
				}
				checkValidResult(t, g, fmt.Sprintf("bounds=%s q=%d k=%d", spec, q, k), res, oracle)
			}
		}
	}
}

// TestIndexedRepeatedQueries runs a long randomized query sequence against
// one evolving index: the dynamic updates of Section 5.3 must never corrupt
// answers, and refinement counts should not grow as the index absorbs
// queries.
func TestIndexedRepeatedQueries(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 120, AttachPerNode: 3, Seed: 21})
	ix, err := ridx.Build(g, ridx.BuildParams{
		Hubs: hub.Select(g, hub.DegreeFirst, 12, hub.Options{}),
		M:    24, K: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g, Options{})
	e.SetIndex(ix)
	for round := 0; round < 3; round++ {
		for q := int32(0); q < int32(g.N()); q += 3 {
			k := 1 + int(q)%10
			oracle := rank.BruteForceReverse(g, q, k)
			res, err := e.Query(Indexed, q, k)
			if err != nil {
				t.Fatal(err)
			}
			checkValidResult(t, g, fmt.Sprintf("round=%d q=%d k=%d", round, q, k), res, oracle)
		}
	}
}

// bruteBichromatic is the oracle for Definitions 3-4: for every candidate
// p in V1, count the V2 nodes strictly closer to p than q.
func bruteBichromatic(g *graph.Graph, q int32, k int, candidates, counted []bool) []rank.Entry {
	s := sssp.New(g)
	dist := make([]float64, g.N())
	var all []rank.Entry
	for p := 0; p < g.N(); p++ {
		if int32(p) == q || !candidates[p] {
			continue
		}
		sssp.AllDistances(s, int32(p), dist)
		if math.IsInf(dist[q], 1) {
			continue
		}
		cnt := int32(0)
		for v := 0; v < g.N(); v++ {
			if int32(v) == q || v == p || !counted[v] {
				continue
			}
			if dist[v] < dist[q] {
				cnt++
			}
		}
		all = append(all, rank.Entry{Node: int32(p), Rank: cnt + 1})
	}
	rank.SortEntries(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestBichromaticMatchesOracle exercises Definitions 3-4 on a small road
// network with store nodes as the query class.
func TestBichromaticMatchesOracle(t *testing.T) {
	g, stores := gen.RoadNetwork(gen.RoadNetworkParams{Rows: 8, Cols: 8, KeepProb: 0.4, Stores: 10, Seed: 31})
	candidates, counted := gen.StoreClasses(g.N(), stores)
	opts := Options{Candidates: candidates, Counted: counted}
	e := NewEngine(g, opts)
	ix, err := ridx.Build(g, ridx.BuildParams{
		Hubs:    hub.Select(g, hub.DegreeFirst, 12, hub.Options{}),
		M:       20,
		K:       8,
		Counted: counted, Candidates: candidates,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetIndex(ix)
	for _, q := range stores {
		for _, k := range []int{1, 3, 8} {
			oracle := bruteBichromatic(g, q, k, candidates, counted)
			for _, algo := range []Algorithm{Naive, Static, Dynamic, Indexed} {
				res, err := e.Query(algo, q, k)
				if err != nil {
					t.Fatalf("%v q=%d k=%d: %v", algo, q, k, err)
				}
				label := fmt.Sprintf("bi/%v q=%d k=%d", algo, q, k)
				if len(res.Entries) != len(oracle) {
					t.Fatalf("%s: size %d want %d (%v vs %v)", label, len(res.Entries), len(oracle), res.Entries, oracle)
				}
				for i := range oracle {
					if res.Entries[i].Rank != oracle[i].Rank {
						t.Fatalf("%s: ranks %v, oracle %v", label, res.Entries, oracle)
					}
					if !candidates[res.Entries[i].Node] {
						t.Errorf("%s: non-candidate %d in result", label, res.Entries[i].Node)
					}
				}
			}
		}
	}
}

// TestIndexedEvictionBichromatic: once Reverse(q) is full, a candidate
// whose entry was evicted is pruned by the eviction argument, and its
// Check bound, raised past q by the search from it, no longer bounds its
// rank. Handing that bound to the subtree below an uncounted node cut
// descendants that tie the node's rank and precede the evicting entries
// by node id: single-node Indexed lost true results at k = K.
func TestIndexedEvictionBichromatic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g, stores := gen.RoadNetwork(gen.RoadNetworkParams{Rows: 15, Cols: 15, KeepProb: 0.3, Stores: 25, Seed: seed})
		candidates, counted := gen.StoreClasses(g.N(), stores)
		opts := Options{Candidates: candidates, Counted: counted}
		ref := NewEngine(g, opts)
		want := map[[2]int]string{}
		for _, maxK := range []int{20, 40} {
			ix, err := ridx.Build(g, ridx.BuildParams{
				Hubs:    hub.Select(g, hub.DegreeFirst, g.N()/10, hub.Options{Seed: seed}),
				M:       g.N() / 5,
				K:       maxK,
				Counted: counted, Candidates: candidates,
			})
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(g, opts)
			e.SetIndex(ix)
			for pass := 0; pass < 2; pass++ {
				for _, q := range stores {
					for _, k := range []int{1, 5, 10, 20} {
						key := [2]int{int(q), k}
						if _, ok := want[key]; !ok {
							res, err := ref.Query(Dynamic, q, k)
							if err != nil {
								t.Fatal(err)
							}
							want[key] = fmt.Sprint(res.Entries)
						}
						res, err := e.Query(Indexed, q, k)
						if err != nil {
							t.Fatal(err)
						}
						if got := fmt.Sprint(res.Entries); got != want[key] {
							t.Fatalf("seed %d K=%d pass %d q=%d k=%d: %s, dynamic %s", seed, maxK, pass, q, k, got, want[key])
						}
					}
				}
			}
		}
	}
}

// TestQueryArgumentValidation covers the error paths.
func TestQueryArgumentValidation(t *testing.T) {
	g := gen.GNM(10, 20, false, 1)
	e := NewEngine(g, Options{})
	if _, err := e.Query(Dynamic, -1, 3); err == nil {
		t.Error("negative query node accepted")
	}
	if _, err := e.Query(Dynamic, 99, 3); err == nil {
		t.Error("out-of-range query node accepted")
	}
	if _, err := e.Query(Dynamic, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := e.Query(Indexed, 0, 3); err == nil {
		t.Error("indexed query without index accepted")
	}
	ix, err := ridx.Build(g, ridx.BuildParams{Hubs: []int32{0}, M: 5, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.SetIndex(ix)
	if _, err := e.Query(Indexed, 0, 3); err == nil {
		t.Error("k above index K accepted")
	}
	if _, err := e.Query(Algorithm(42), 0, 3); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestResultDeterminism: repeated identical queries produce bit-identical
// results and equal work counters (for index-free engines).
func TestResultDeterminism(t *testing.T) {
	g := gen.GNM(80, 240, false, 13)
	e := NewEngine(g, Options{})
	for _, algo := range []Algorithm{Static, Dynamic} {
		a, err := e.Query(algo, 5, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Query(algo, 5, 7)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.Entries) != fmt.Sprint(b.Entries) || a.Stats != b.Stats {
			t.Errorf("%v: nondeterministic: %+v vs %+v", algo, a, b)
		}
	}
}

// TestStatsMonotonicity checks the headline efficiency claim on a
// power-law graph: dynamic never refines more than static, and indexed
// never refines more than dynamic (averaged over queries).
func TestStatsMonotonicity(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 300, AttachPerNode: 4, Seed: 17})
	ix, err := ridx.Build(g, ridx.BuildParams{
		Hubs: hub.Select(g, hub.DegreeFirst, 30, hub.Options{}),
		M:    60, K: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g, Options{})
	e.SetIndex(ix)
	var static, dynamic, indexed int
	for q := int32(0); q < 300; q += 11 {
		rs, err := e.Query(Static, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := e.Query(Dynamic, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := e.Query(Indexed, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		static += rs.Stats.Refinements
		dynamic += rd.Stats.Refinements
		indexed += ri.Stats.Refinements
	}
	if dynamic > static {
		t.Errorf("dynamic refinements %d > static %d", dynamic, static)
	}
	if indexed > dynamic {
		t.Errorf("indexed refinements %d > dynamic %d", indexed, dynamic)
	}
	t.Logf("refinements: static=%d dynamic=%d indexed=%d", static, dynamic, indexed)
}

// TestNodesHelper covers Result accessors.
func TestNodesHelper(t *testing.T) {
	r := &Result{Query: 1, K: 2, Entries: []rank.Entry{{Node: 4, Rank: 2}, {Node: 9, Rank: 3}}}
	nodes := r.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	if nodes[0] != 4 || nodes[1] != 9 {
		t.Errorf("Nodes() = %v", nodes)
	}
	if r.KRank() != 3 {
		t.Errorf("KRank() = %d", r.KRank())
	}
	if (&Result{}).KRank() != 0 {
		t.Error("empty KRank != 0")
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}
