package core

import (
	"testing"

	"rkranks/internal/rank"
	"rkranks/internal/sssp"
)

// These tests verify the paper's lemmas directly on random (tie-heavy)
// graphs — the foundations every pruning decision rests on.

// TestLemma1ParentRankMonotone: on the full shortest-path tree toward q,
// Rank(child, q) >= Rank(parent, q) (Lemma 1 / Theorem 1).
func TestLemma1ParentRankMonotone(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := tieHeavyGraph(41, directed)
		tree := sssp.New(g)
		ref := sssp.New(g)
		for q := int32(0); int(q) < g.N(); q += 7 {
			tree.ResetReverse(q)
			for {
				v, _, ok := tree.Next()
				if !ok {
					break
				}
				p := tree.Parent(v)
				if v == q || p < 0 || p == q {
					continue
				}
				rv := rank.Of(ref, v, q)
				rp := rank.Of(ref, p, q)
				if rv < rp {
					t.Fatalf("directed=%v q=%d: Rank(%d)=%d < Rank(parent %d)=%d",
						directed, q, v, rv, p, rp)
				}
			}
		}
	}
}

// TestLemma2HeightBound: Rank(v, q) >= depth of v in the SDS tree.
func TestLemma2HeightBound(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := tieHeavyGraph(42, directed)
		tree := sssp.New(g)
		ref := sssp.New(g)
		for q := int32(0); int(q) < g.N(); q += 9 {
			tree.ResetReverse(q)
			for {
				v, _, ok := tree.Next()
				if !ok {
					break
				}
				if v == q {
					continue
				}
				rv := rank.Of(ref, v, q)
				if rv < tree.Depth(v) {
					t.Fatalf("directed=%v q=%d: Rank(%d)=%d < depth %d",
						directed, q, v, rv, tree.Depth(v))
				}
			}
		}
	}
}

// TestLemma4LcountBound: after a dynamic query on an undirected graph,
// every visit counter the engine accumulated is a valid lower bound on the
// node's true rank — even under pervasive distance ties, where the paper's
// step-counting version of the lemma can overcount.
func TestLemma4LcountBound(t *testing.T) {
	g := tieHeavyGraph(43, false)
	e := NewEngine(g, Options{})
	s := sssp.New(g)
	// k = |V| keeps the result heap unfilled, so no subtree is ever pruned
	// and every dequeued distance is exact; under those conditions every
	// accumulated counter must satisfy the lemma unconditionally. (With
	// pruning, counters of provably-non-result nodes may overshoot their
	// true rank; the engine only ever uses them to prune those same
	// non-result nodes, which the oracle tests cover.)
	for q := int32(0); int(q) < g.N(); q += 5 {
		if _, err := e.Query(Dynamic, q, g.N()); err != nil {
			t.Fatal(err)
		}
		for v := int32(0); int(v) < g.N(); v++ {
			if v == q || e.lstamp[v] != e.epoch {
				continue
			}
			lc := e.lcount[v]
			truth := rank.Of(s, v, q)
			if truth != rank.Unreachable && lc > truth {
				t.Fatalf("q=%d: lcount[%d]=%d exceeds Rank=%d", q, v, lc, truth)
			}
		}
	}
}

// TestCheckDictionaryBound: after indexed queries, Check(u) is a valid
// lower bound on Rank(u, w) for every node w absent from u's entries in
// the Reverse Rank Dictionary (the ridx package's certified semantics).
func TestCheckDictionaryBound(t *testing.T) {
	g := tieHeavyGraph(44, false)
	e := NewEngine(g, Options{})
	e.SetIndex(mustIndex(t, g))
	s := sssp.New(g)
	for q := int32(0); int(q) < g.N(); q += 6 {
		if _, err := e.Query(Indexed, q, 5); err != nil {
			t.Fatal(err)
		}
	}
	ix := e.Index()
	for u := int32(0); int(u) < g.N(); u++ {
		c := ix.Check(u)
		if c == 0 {
			continue
		}
		for w := int32(0); int(w) < g.N(); w++ {
			if w == u {
				continue
			}
			if _, recorded := ix.LookupRank(w, u); recorded {
				continue
			}
			// Skip pairs where enough better sources fill w's list: the
			// certified semantics only promise the bound when u's absence
			// is not due to eviction by maxK better entries.
			if len(ix.Reverse(w, nil)) >= ix.MaxK() {
				continue
			}
			truth := rank.Of(s, u, w)
			if truth < c {
				t.Fatalf("Check(%d)=%d but Rank(%d,%d)=%d", u, c, u, w, truth)
			}
		}
	}
}
