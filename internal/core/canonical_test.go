package core

import (
	"math/rand"
	"testing"

	"rkranks/internal/graph"
	"rkranks/internal/rank"
)

// entriesEqual compares entry slices element-wise, treating nil and empty
// as equal.
func entriesEqual(a, b []rank.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCanonicalBoundaryTies pins the canonical-result invariant the
// cluster merge depends on: every engine returns exactly the minimum k
// entries by (rank, node id) — byte-identical to the brute-force oracle,
// node ids included — even on tie-heavy graphs where many candidates
// share the k-th rank and pruning order would otherwise pick the winner.
func TestCanonicalBoundaryTies(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		for _, directed := range []bool{false, true} {
			g := tieHeavyGraph(seed, directed)
			e := NewEngine(g, Options{})
			e.SetIndex(mustIndex(t, g))
			rng := rand.New(rand.NewSource(seed * 31))
			for trial := 0; trial < 3; trial++ {
				q := int32(rng.Intn(g.N()))
				k := 1 + rng.Intn(10)
				oracle := rank.BruteForceReverse(g, q, k)
				for _, algo := range []Algorithm{Naive, Static, Dynamic, Indexed} {
					res, err := e.Query(algo, q, k)
					if err != nil {
						t.Fatalf("seed=%d %v q=%d k=%d: %v", seed, algo, q, k, err)
					}
					if !entriesEqual(res.Entries, oracle) {
						t.Fatalf("seed=%d directed=%v %v q=%d k=%d not canonical:\n got  %v\n want %v",
							seed, directed, algo, q, k, res.Entries, oracle)
					}
				}
			}
		}
	}
}

// TestCanonicalRestrictedCandidates checks the canonical invariant under a
// Candidates mask — the configuration a cluster vertex shard runs: the
// result must be the canonical top-k of the masked candidate set with
// ranks still counted over the whole graph.
func TestCanonicalRestrictedCandidates(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := tieHeavyGraph(seed, false)
		n := g.N()
		rng := rand.New(rand.NewSource(seed*7 + 3))
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = rng.Intn(2) == 0
		}
		e := NewEngine(g, Options{Candidates: mask})
		q := int32(rng.Intn(n))
		k := 1 + rng.Intn(8)
		full := rank.BruteForceReverse(g, q, n)
		want := make([]rank.Entry, 0, k)
		for _, en := range full {
			if mask[en.Node] && len(want) < k {
				want = append(want, en)
			}
		}
		for _, algo := range []Algorithm{Naive, Static, Dynamic} {
			res, err := e.Query(algo, q, k)
			if err != nil {
				t.Fatalf("seed=%d %v: %v", seed, algo, err)
			}
			if !entriesEqual(res.Entries, want) {
				t.Fatalf("seed=%d %v q=%d k=%d masked not canonical:\n got  %v\n want %v",
					seed, algo, q, k, res.Entries, want)
			}
		}
	}
}

// TestCanonicalTieAtPruneBound constructs the exact regression the strict
// prune fixes: a candidate whose Theorem-2 lower bound equals both its
// exact rank and the final kRank, with a node id that should tie-break it
// INTO the result. Pre-canonical engines pruned it.
func TestCanonicalTieAtPruneBound(t *testing.T) {
	// Star-ish graph engineered so two nodes share the boundary rank.
	b := graph.NewBuilder(false)
	b.EnsureNodes(6)
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 2, 1)
	b.MustAddEdge(1, 3, 1)
	b.MustAddEdge(2, 4, 1)
	b.MustAddEdge(3, 5, 1)
	g := b.Finalize()
	e := NewEngine(g, Options{})
	for q := int32(0); int(q) < g.N(); q++ {
		for k := 1; k <= g.N(); k++ {
			oracle := rank.BruteForceReverse(g, q, k)
			for _, algo := range []Algorithm{Naive, Static, Dynamic} {
				res, err := e.Query(algo, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !entriesEqual(res.Entries, oracle) {
					t.Fatalf("%v q=%d k=%d: got %v, want %v", algo, q, k, res.Entries, oracle)
				}
			}
		}
	}
}
