package experiments

import (
	"fmt"
	"runtime"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/stats"
	"rkranks/internal/workload"
)

// Latency goes beyond the paper's evaluation in the direction orthogonal
// to Serving: where Serving measures the aggregate throughput of many
// concurrent queries, Latency measures how fast ONE query finishes on one
// engine. Queries are issued strictly one at a time and timed
// individually; the workload runs as one shared-traversal batch (the
// steady serving configuration — see Pool.QueryManyContext), and each
// dataset reports p50/p99/mean and the steady-state allocation cost per
// query measured by runtime.ReadMemStats deltas over the timed loop.
func (r *Runner) Latency() (*stats.Table, error) {
	t := stats.NewTable("Latency: Dynamic, one query at a time",
		"dataset", "p50 (s)", "p99 (s)", "mean (s)", "allocs/query", "bytes/query")
	k := defaultK(r.cfg.Ks)
	road, _ := r.Road()
	sets := []struct {
		name string
		g    *graph.Graph
	}{
		{"dblp", r.DBLP()},
		{"road", road},
	}
	for _, s := range sets {
		queries := workload.Random(s.g, r.cfg.Queries, r.cfg.Seed+29)
		e := core.NewEngine(s.g, core.Options{})
		// Untimed warm-up batch so every workspace (heap storage, stamped
		// arrays, arena slabs) reaches its high-water mark before the
		// allocation deltas are read.
		e.BeginBatch()
		for _, q := range queries {
			if _, err := e.Query(core.Dynamic, q, k); err != nil {
				return nil, err
			}
		}
		e.EndBatch()
		durs := make([]float64, 0, len(queries))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.BeginBatch()
		for _, q := range queries {
			start := time.Now()
			if _, err := e.Query(core.Dynamic, q, k); err != nil {
				return nil, err
			}
			durs = append(durs, time.Since(start).Seconds())
		}
		e.EndBatch()
		runtime.ReadMemStats(&after)
		nq := float64(len(durs))
		t.Add(s.name,
			fmt.Sprintf("%.6f", stats.Percentile(durs, 50)),
			fmt.Sprintf("%.6f", stats.Percentile(durs, 99)),
			fmt.Sprintf("%.6f", stats.Mean(durs)),
			fmt.Sprintf("%.2f", float64(after.Mallocs-before.Mallocs)/nq),
			fmt.Sprintf("%.1f", float64(after.TotalAlloc-before.TotalAlloc)/nq))
	}
	t.Note("%d queries per dataset, k=%d; each dataset runs as one shared-traversal batch", r.cfg.Queries, k)
	return t, nil
}

// SteadyStateAllocs measures the per-query allocation cost of the warm
// batch-serving hot path: one engine over the DBLP-like graph, Dynamic at
// the default k, the standard random workload run once untimed (so every
// workspace reaches its high-water mark) and then again inside a
// runtime.ReadMemStats window. This is the `allocs_per_query` /
// `bytes_per_query` pair rkbench stamps into its JSON reports — the
// invocation-level summary of the arena + stamped-array zero-alloc claim,
// complementing the per-dataset columns in the latency table.
func (r *Runner) SteadyStateAllocs() (allocsPerQuery, bytesPerQuery float64, err error) {
	g := r.DBLP()
	e := core.NewEngine(g, core.Options{})
	k := defaultK(r.cfg.Ks)
	queries := workload.Random(g, r.cfg.Queries, r.cfg.Seed+31)
	run := func() error {
		e.BeginBatch()
		defer e.EndBatch()
		for _, q := range queries {
			if _, err := e.Query(core.Dynamic, q, k); err != nil {
				return err
			}
		}
		return nil
	}
	if err = run(); err != nil {
		return 0, 0, err
	}
	runtime.GC() // settle warm-up garbage so the window sees only steady state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err = run(); err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&after)
	n := float64(len(queries))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}
