package experiments

import (
	"fmt"
	"runtime"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/stats"
	"rkranks/internal/workload"
)

// Serving goes beyond the paper's single-threaded evaluation: it measures
// the aggregate throughput of pooled Indexed queries against one shared
// concurrency-safe index, sweeping the worker count. Each sweep point gets
// a fresh copy of the same seed index so points are comparable (the shared
// index learns from its own traffic, not a predecessor's), and every
// worker's refinements feed the dictionaries all workers read.
func (r *Runner) Serving() (*stats.Table, error) {
	t := stats.NewTable("Serving: pooled Indexed throughput (shared concurrent index)",
		"dataset", "workers", "queries", "aggregate QPS", "speedup vs 1")
	k := defaultK(r.cfg.Ks)
	sweep := workerSweep(r.cfg.Workers)
	for _, ds := range []string{"dblp", "epinions"} {
		g, err := r.graphByName(ds)
		if err != nil {
			return nil, err
		}
		seed, _, err := r.buildIndex(g, r.cfg.HubFrac, r.cfg.IndexFrac, r.cfg.Strategy, nil, nil)
		if err != nil {
			return nil, err
		}
		// Enough queries that pool dispatch overhead amortizes at every
		// sweep point.
		queries := workload.Random(g, 8*r.cfg.Queries, r.cfg.Seed+23)
		var base float64
		for _, workers := range sweep {
			shared := seed.Snapshot().Sharded()
			pool, err := core.NewPoolWithIndex(g, core.Options{}, workers, shared)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := pool.QueryMany(core.Indexed, queries, k); err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			qps := float64(len(queries)) / elapsed.Seconds()
			if workers == 1 {
				base = qps
			}
			t.Add(ds, workers, len(queries),
				fmt.Sprintf("%.0f", qps), fmt.Sprintf("%.2fx", qps/base))
		}
	}
	t.Note("single shared ridx.ShardedIndex per sweep point; every query's refinements are visible to all workers")
	return t, nil
}

// workerSweep returns the worker counts to measure: powers of two up to
// max (<= 0 uses GOMAXPROCS), always ending at max itself.
func workerSweep(max int) []int {
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	sweep := []int{1}
	for w := 2; w < max; w *= 2 {
		sweep = append(sweep, w)
	}
	if max > 1 {
		sweep = append(sweep, max)
	}
	return sweep
}
