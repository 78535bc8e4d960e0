package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/live"
	"rkranks/internal/stats"
	"rkranks/internal/workload"
)

// Mutation measures the live-mutation pipeline (internal/live): the cost
// of landing mutation batches through the store's two write paths —
// in-place weight patches under the epoch barrier vs full
// rebuild-and-swap for topology changes — and what each does to query
// latency served concurrently with the churn. The "none" row is the
// no-churn control: the same query workload on an identical store that
// never mutates, so the query columns isolate the serving cost of churn
// from the serving cost of the store itself.
func (r *Runner) Mutation() (*stats.Table, error) {
	t := stats.NewTable("Live mutations: weight patches vs rebuild swaps under query load",
		"dataset", "path", "batches", "apply p50 (ms)", "apply p99 (ms)",
		"query p50 (ms)", "query p95 (ms)")
	ctx := context.Background()
	k := defaultK(r.cfg.Ks)
	rng := rand.New(rand.NewSource(r.cfg.Seed + 41))

	base := r.DBLP()
	queries := workload.Random(base, r.cfg.Queries, r.cfg.Seed+43)

	// Existing pairs feed the weight patches; the edge set lets the
	// rebuild path draw fresh (absent) pairs for inserts.
	var pairs [][2]int32
	edgeSet := map[[2]int32]bool{}
	norm := func(u, v int32) [2]int32 {
		if u > v {
			u, v = v, u
		}
		return [2]int32{u, v}
	}
	base.Edges(func(e graph.Edge) bool {
		edgeSet[norm(e.From, e.To)] = true
		pairs = append(pairs, [2]int32{e.From, e.To})
		return true
	})
	freshPair := func() (int32, int32) {
		for {
			u, v := int32(rng.Intn(base.N())), int32(rng.Intn(base.N()))
			if u == v || edgeSet[norm(u, v)] {
				continue
			}
			edgeSet[norm(u, v)] = true
			return u, v
		}
	}

	patchBatches := r.cfg.Queries
	rebuildBatches := r.cfg.Queries / 4
	if rebuildBatches < 3 {
		rebuildBatches = 3
	}
	const opsPerPatch = 8

	var inserted [][2]int32
	plans := []struct {
		name    string
		batches int
		make    func(i int) []graph.Mutation // nil: no-churn control
	}{
		{"none", patchBatches, nil},
		{"weight-patch", patchBatches, func(int) []graph.Mutation {
			ms := make([]graph.Mutation, 0, opsPerPatch)
			for j := 0; j < opsPerPatch; j++ {
				p := pairs[rng.Intn(len(pairs))]
				ms = append(ms, graph.SetWeight(p[0], p[1], 0.25+rng.Float64()*4))
			}
			return ms
		}},
		{"rebuild", rebuildBatches, func(i int) []graph.Mutation {
			// Alternate inserting a fresh pair and deleting the last one,
			// so the graph never drifts far from the baseline topology.
			if i%2 == 1 && len(inserted) > 0 {
				p := inserted[len(inserted)-1]
				inserted = inserted[:len(inserted)-1]
				delete(edgeSet, norm(p[0], p[1]))
				return []graph.Mutation{graph.DeleteEdge(p[0], p[1])}
			}
			u, v := freshPair()
			inserted = append(inserted, [2]int32{u, v})
			return []graph.Mutation{graph.InsertEdge(u, v, 0.5+rng.Float64()*2)}
		}},
	}

	for _, pl := range plans {
		// Each path gets a private store over a copy: weight patches
		// rewrite the arc slabs in place and must not touch the runner's
		// cached graph or a sibling row's store.
		s, err := live.NewStore(base.Clone(), live.Config{PoolSize: 1})
		if err != nil {
			return nil, err
		}
		// Untimed warm-up pass: bring every engine workspace to its
		// high-water mark before the clocks start.
		for _, q := range queries {
			if _, err := s.QueryContext(ctx, core.Dynamic, q, k); err != nil {
				return nil, err
			}
		}
		var applyDurs, queryDurs []float64
		qi := 0
		for i := 0; i < pl.batches; i++ {
			if pl.make != nil {
				ms := pl.make(i)
				start := time.Now()
				if _, err := s.Mutate(ctx, ms); err != nil {
					return nil, err
				}
				applyDurs = append(applyDurs, time.Since(start).Seconds())
			}
			// Queries interleave with the batches, so they always hit the
			// just-published state (cold dynamic index, fresh epoch).
			for j := 0; j < 4; j++ {
				q := queries[qi%len(queries)]
				qi++
				start := time.Now()
				if _, err := s.QueryContext(ctx, core.Dynamic, q, k); err != nil {
					return nil, err
				}
				queryDurs = append(queryDurs, time.Since(start).Seconds())
			}
		}
		wantGen := uint64(1)
		if pl.make != nil {
			wantGen += uint64(pl.batches)
		}
		if got := s.Generation(); got != wantGen {
			return nil, fmt.Errorf("experiments: %s path ended at generation %d, want %d", pl.name, got, wantGen)
		}
		applyP50, applyP99 := "0.0000", "0.0000"
		if len(applyDurs) > 0 {
			applyP50 = fmt.Sprintf("%.4f", 1000*stats.Percentile(applyDurs, 50))
			applyP99 = fmt.Sprintf("%.4f", 1000*stats.Percentile(applyDurs, 99))
		}
		t.Add("dblp", pl.name, pl.batches, applyP50, applyP99,
			fmt.Sprintf("%.4f", 1000*stats.Percentile(queryDurs, 50)),
			fmt.Sprintf("%.4f", 1000*stats.Percentile(queryDurs, 95)))
	}
	t.Note("k=%d; weight batches carry %d SetWeight ops, rebuild batches one insert/delete toggle; 4 Dynamic queries after every batch, each against the freshly published generation", k, opsPerPatch)
	return t, nil
}
