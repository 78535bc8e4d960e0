package core

import (
	"math"
	"reflect"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/hub"
	"rkranks/internal/ridx"
)

// batchQueries builds a query list with duplicates and non-monotone order,
// the shapes that exercise shared-traversal replay: repeated queries replay
// whole refinement sets, nearby queries replay prefixes.
func batchQueries(n int) []int32 {
	var qs []int32
	for v := int32(0); v < int32(n); v += 3 {
		qs = append(qs, v)
	}
	for v := int32(n) - 1; v >= 0; v -= 4 {
		qs = append(qs, v)
	}
	qs = append(qs, qs[:len(qs)/2]...) // duplicates
	return qs
}

// TestBatchByteIdentity asserts the tentpole contract: a shared-traversal
// batch returns, query for query, byte-identical results to standalone
// per-query execution — for every algorithm, across pool sizes. For the
// index-free algorithms even the decision stats must match (replay changes
// effort counters only: RefineSettled and SharedTraversals); Indexed
// results are canonical but its stats depend on index state, which evolves
// with execution order.
func TestBatchByteIdentity(t *testing.T) {
	const k = 5
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			qs := batchQueries(g.N())
			ix, err := ridx.BuildSharded(g, ridx.BuildParams{
				Hubs: hub.Select(g, hub.DegreeFirst, g.N()/10+1, hub.Options{Seed: 9}),
				M:    g.N() / 5,
				K:    8,
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			labels, err := hub.BuildLabels(g, hub.Order(g, hub.DegreeFirst, g.N(), hub.Options{Seed: 9}), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []Algorithm{Naive, Static, Dynamic, Indexed, HubLabel} {
				opts := Options{}
				if a == HubLabel {
					opts.Labels = labels
				}
				// Standalone reference: a fresh engine per query.
				want := make([]*Result, len(qs))
				for i, q := range qs {
					e := NewEngine(g, opts)
					if a == Indexed {
						e.SetIndex(ix)
					}
					res, err := e.Query(a, q, k)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = res
				}
				for _, size := range []int{1, 3} {
					var p *Pool
					if a == Indexed {
						p, err = NewPoolWithIndex(g, Options{}, size, ix)
						if err != nil {
							t.Fatal(err)
						}
					} else {
						p = NewPool(g, opts, size)
					}
					got, err := p.QueryMany(a, qs, k)
					if err != nil {
						t.Fatal(err)
					}
					for i := range qs {
						if !reflect.DeepEqual(got[i].Entries, want[i].Entries) {
							t.Fatalf("%s/%v size=%d query %d: batch entries %v, standalone %v",
								name, a, size, qs[i], got[i].Entries, want[i].Entries)
						}
						if a == Indexed {
							continue
						}
						gs, ws := got[i].Stats, want[i].Stats
						// Neutralize the documented effort-only divergences.
						gs.RefineSettled, ws.RefineSettled = 0, 0
						gs.SharedTraversals, ws.SharedTraversals = 0, 0
						if gs != ws {
							t.Fatalf("%s/%v size=%d query %d: batch decision stats %+v, standalone %+v",
								name, a, size, qs[i], gs, ws)
						}
					}
				}
			}
		})
	}
}

// TestBatchSharesTraversals asserts the executor actually engages: a batch
// repeating one query on a single-engine pool must serve the repeat's
// refinements by replay, not fresh searches.
func TestBatchSharesTraversals(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 200, AttachPerNode: 4, Seed: 3})
	p := NewPool(g, Options{}, 1)
	qs := []int32{17, 42, 17, 42, 17}
	got, err := p.QueryMany(Dynamic, qs, 8)
	if err != nil {
		t.Fatal(err)
	}
	var shared, refs int
	for _, r := range got {
		shared += r.Stats.SharedTraversals
		refs += r.Stats.Refinements
	}
	if shared == 0 {
		t.Fatalf("no shared traversals across %d refinements of a repeating batch", refs)
	}
	if got[0].Stats.SharedTraversals != 0 {
		t.Errorf("first query of the batch replayed %d refinements; nothing was stored yet",
			got[0].Stats.SharedTraversals)
	}
	// Repeats of an identical query replay every refinement: identical
	// cutoffs, identical kRank evolution, so every stored log covers.
	last := got[len(got)-1].Stats
	if last.SharedTraversals != last.Refinements {
		t.Errorf("repeat query replayed %d of %d refinements; identical repeats should replay all",
			last.SharedTraversals, last.Refinements)
	}
	for i, r := range got {
		if !reflect.DeepEqual(r.Entries, got[i%2].Entries) {
			t.Errorf("repeat %d diverged: %v vs %v", i, r.Entries, got[i%2].Entries)
		}
	}
}

// TestBatchBichromatic runs batches under candidate/counted classes, where
// replay must respect the counted filter and the descBound adjustments.
func TestBatchBichromatic(t *testing.T) {
	g, stores := gen.RoadNetwork(gen.RoadNetworkParams{Rows: 8, Cols: 8, KeepProb: 0.6, Stores: 12, Seed: 31})
	candidates, counted := gen.StoreClasses(g.N(), stores)
	opts := Options{Candidates: candidates, Counted: counted}
	var qs []int32
	for v := 0; v < g.N(); v++ {
		if counted[v] {
			qs = append(qs, int32(v))
		}
	}
	qs = append(qs, qs...)
	for _, a := range []Algorithm{Naive, Static, Dynamic} {
		want := make([]*Result, len(qs))
		for i, q := range qs {
			res, err := NewEngine(g, opts).Query(a, q, 4)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}
		p := NewPool(g, opts, 2)
		got, err := p.QueryMany(a, qs, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			if !reflect.DeepEqual(got[i].Entries, want[i].Entries) {
				t.Fatalf("%v query %d: batch %v, standalone %v", a, qs[i], got[i].Entries, want[i].Entries)
			}
		}
	}
}

// TestArenaReplayRules unit-tests the replay scan against hand-built logs.
func TestArenaReplayRules(t *testing.T) {
	a := newBatchArena(10)
	a.begin()
	// Candidate 1's stored run: counted settles at dist 1, 2, 2, 3; ranks
	// tie-aware; ran with cutoff 3.5, exhausted its frontier.
	log := []settleRec{{node: 4, dist: 1, rank: 1}, {node: 5, dist: 2, rank: 2},
		{node: 6, dist: 2, rank: 2}, {node: 7, dist: 3, rank: 4}}
	a.store(1, 3.5, true, log)

	// Exact hit: query 6 stops at its own record.
	out, pre, ok := a.replay(1, 6, 3.5, 3.5, kRankInf)
	if !ok || !out.exact || out.bound != 2 || out.stopLevel != 2 || len(pre) != 3 {
		t.Fatalf("exact replay: out=%+v prefix=%d ok=%v", out, len(pre), ok)
	}
	// Abort: threshold 3 is reached by node 7's settle (strictly-closer 3).
	out, pre, ok = a.replay(1, 9, 3.5, 3.5, 3)
	if !ok || !out.aborted || out.bound != 4 || len(pre) != 4 {
		t.Fatalf("abort replay: out=%+v prefix=%d ok=%v", out, len(pre), ok)
	}
	// Narrower cutoff: a query with cutoff 1.5 exhausts after node 4.
	out, pre, ok = a.replay(1, 9, 1.5, 1.5, kRankInf)
	if !ok || out.exact || out.bound != int32(math.MaxInt32) || len(pre) != 1 {
		t.Fatalf("cutoff replay: out=%+v prefix=%d ok=%v", out, len(pre), ok)
	}
	// Exhausted coverage: cutoff equal to the stored one resolves
	// Unreachable; a wider one does not (the stored run may have dropped
	// frontier nodes between the cutoffs).
	if out, pre, ok = a.replay(1, 9, 3.5, 3.5, kRankInf); !ok || out.bound != int32(math.MaxInt32) || len(pre) != 4 {
		t.Fatalf("exhausted replay: out=%+v prefix=%d ok=%v", out, len(pre), ok)
	}
	if _, _, ok = a.replay(1, 9, 4.0, 4.0, kRankInf); ok {
		t.Fatal("replay resolved beyond stored coverage")
	}
	// Unknown candidate.
	if _, _, ok = a.replay(2, 9, 3.5, 3.5, kRankInf); ok {
		t.Fatal("replay hit for a candidate never stored")
	}
	// A non-exhausted stored log (early exact stop) must not resolve
	// Unreachable off its end.
	a.store(3, 10, false, log[:2])
	if _, _, ok = a.replay(3, 9, 10, 10, kRankInf); ok {
		t.Fatal("replay resolved off the end of a truncated log")
	}
	// The O(1) fast-miss guard must not fire when q's record sits exactly
	// at the log's coverage edge (d(p, q) equal to the last settle level).
	if out, pre, ok = a.replay(3, 5, 2.0, 2.0, kRankInf); !ok || !out.exact || out.bound != 2 || len(pre) != 2 {
		t.Fatalf("edge-of-coverage replay: out=%+v prefix=%d ok=%v", out, len(pre), ok)
	}
	// Shorter logs never replace longer ones; longer ones do replace.
	a.store(1, 2.0, false, log[:1])
	if ref := a.refs[1]; ref.n != 4 || !ref.exhausted {
		t.Fatalf("shorter log replaced a longer one: %+v", ref)
	}
	a.store(3, 10, false, log)
	if ref := a.refs[3]; ref.n != 4 {
		t.Fatalf("longer log did not replace: %+v", ref)
	}
	// begin invalidates everything stored.
	a.begin()
	if _, _, ok := a.replay(1, 6, 3.5, 3.5, kRankInf); ok {
		t.Fatal("replay hit across batch boundary")
	}
}
