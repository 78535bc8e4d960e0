package core

import (
	"context"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/obs"
)

// TestSteadyStateAllocations: after warm-up, a query's allocations are a
// small constant (result assembly only) regardless of how much of the
// graph it touches — the epoch-reset workspaces must not reallocate. A
// cluster shard's query under a merged k (masked engine, shadow heap) is
// held to the same budget.
func TestSteadyStateAllocations(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 2000, AttachPerNode: 5, Seed: 5})
	half := make([]bool, g.N())
	for v := range half {
		half[v] = v%2 == 0
	}
	shard := WithMergedK(context.Background(), 20)
	for _, tc := range []struct {
		name string
		opts Options
		ctx  context.Context
	}{
		{"single node", Options{}, context.Background()},
		{"merged-k shard", Options{Candidates: half}, shard},
	} {
		e := NewEngine(g, tc.opts)
		// Warm up: grow the refinement scratch and heaps to their
		// high-water marks across a few representative queries.
		for q := int32(0); q < 50; q += 5 {
			if _, err := e.QueryContext(tc.ctx, Dynamic, q, 10); err != nil {
				t.Fatal(err)
			}
		}
		const perQueryBudget = 2 // Result struct + sorted entries copy, nothing else
		avg := testing.AllocsPerRun(20, func() {
			if _, err := e.QueryContext(tc.ctx, Dynamic, 25, 10); err != nil {
				t.Fatal(err)
			}
		})
		if avg > perQueryBudget {
			t.Errorf("%s: steady-state allocations per query = %.1f, budget %d", tc.name, avg, perQueryBudget)
		}
	}
}

// TestTracedQueryAllocations: threading a request trace through the
// engine must not widen the steady-state budget — spans live in the
// trace's fixed arrays and attributes are typed int64s, so the traced
// query costs exactly what the untraced one does.
func TestTracedQueryAllocations(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 2000, AttachPerNode: 5, Seed: 5})
	e := NewEngine(g, Options{})
	tr := obs.NewTrace("alloc-test", "query")
	defer tr.Release()
	ctx := obs.ContextWithTrace(context.Background(), tr)
	for q := int32(0); q < 50; q += 5 {
		if _, err := e.QueryContext(ctx, Dynamic, q, 10); err != nil {
			t.Fatal(err)
		}
	}
	const perQueryBudget = 2 // identical to the untraced gate
	avg := testing.AllocsPerRun(20, func() {
		tr.Reset("alloc-test", "query")
		if _, err := e.QueryContext(ctx, Dynamic, 25, 10); err != nil {
			t.Fatal(err)
		}
	})
	if avg > perQueryBudget {
		t.Errorf("traced steady-state allocations per query = %.1f, budget %d", avg, perQueryBudget)
	}
}

// TestBatchAllocations: in batch mode the per-query Result and entry
// allocations are amortized away by the arena's chunked slabs, so a warm
// batch averages well under one allocation per query.
func TestBatchAllocations(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 2000, AttachPerNode: 5, Seed: 5})
	e := NewEngine(g, Options{})
	qs := make([]int32, 100)
	for i := range qs {
		qs[i] = int32(i % 40)
	}
	run := func() {
		e.BeginBatch()
		defer e.EndBatch()
		for _, q := range qs {
			if _, err := e.Query(Dynamic, q, 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm up scratch high-water marks
	avg := testing.AllocsPerRun(5, run) / float64(len(qs))
	// Chunked slabs: ~len(qs)/arenaResultChunk Result chunks plus entry
	// chunks per batch, amortizing to a fraction of an alloc per query.
	if avg > 0.5 {
		t.Errorf("batch steady-state allocations per query = %.2f, want < 0.5", avg)
	}
}
