package experiments

import (
	"fmt"
	"time"

	"rkranks/internal/cluster"
	"rkranks/internal/core"
	"rkranks/internal/stats"
	"rkranks/internal/workload"
)

// ServingCluster measures the scatter-gather coordinator (internal/
// cluster) against the same workload a single node serves: per-query
// latency across shard counts, and — the point of the merged k — how
// many result entries actually cross the shard boundary versus the
// naive full-k gather. Entries-transferred and the summed refinement
// counters are deterministic for a fixed seed (serial per-shard pools,
// index-free Dynamic engine), so benchdiff gates them
// machine-independently; the latency column carries wall-clock noise and
// is gated laxly.
func (r *Runner) ServingCluster() (*stats.Table, error) {
	t := stats.NewTable("Serving from a sharded cluster: merged-k scatter vs naive full-k gather (Dynamic)",
		"dataset", "partitioner", "shards", "mean (ms)",
		"transferred (entries)", "naive gather (entries)", "saved (%)",
		"refinements")
	k := maxK(r.cfg.Ks)
	g := r.DBLP()
	queries := workload.Random(g, max(r.cfg.Queries, minTimedQueries), r.cfg.Seed+43)

	for _, shards := range shardSweep(r.cfg.Workers) {
		pruned, err := cluster.NewLocal(g, core.Options{}, cluster.DegreeBalanced{}, shards, 1, 1, nil, cluster.Config{})
		if err != nil {
			return nil, err
		}
		naive, err := cluster.NewLocal(g, core.Options{}, cluster.DegreeBalanced{}, shards, 1, 1, nil, cluster.Config{NaiveGather: true})
		if err != nil {
			return nil, err
		}
		mean, refinements, err := runClusterBatch(pruned, queries, k)
		if err != nil {
			return nil, err
		}
		if _, _, err := runClusterBatch(naive, queries, k); err != nil {
			return nil, err
		}
		ps := pruned.ClusterSnapshot().(*cluster.Snapshot)
		ns := naive.ClusterSnapshot().(*cluster.Snapshot)
		saved := 0.0
		if ns.EntriesTransferred > 0 {
			saved = 100 * (1 - float64(ps.EntriesTransferred)/float64(ns.EntriesTransferred))
		}
		t.Add("dblp", "degree", shards,
			fmt.Sprintf("%.3f", 1000*mean),
			ps.EntriesTransferred, ns.EntriesTransferred,
			fmt.Sprintf("%.0f%%", saved), refinements)
		_ = pruned.Close()
		_ = naive.Close()
	}
	t.Note("%d queries per point, k=%d; every row's merged results are byte-identical to a single node's", len(queries), k)
	t.Note("transferred counts result entries crossing the shard boundary; naive gather always moves shards*k per query")
	return t, nil
}

// runClusterBatch runs the workload one query at a time, returning the
// mean latency in seconds and the refinement count summed over the
// measured queries (the shard-work counter benchdiff gates).
func runClusterBatch(c *cluster.Coordinator, queries []int32, k int) (float64, int64, error) {
	// Warm-up: engine workspaces reach their high-water marks untimed.
	// (The warm-up query also lands in the transfer counters, same on
	// the pruned and naive sides.)
	if _, err := c.Query(core.Dynamic, queries[0], k); err != nil {
		return 0, 0, err
	}
	var refinements int64
	start := time.Now()
	for _, q := range queries {
		res, err := c.Query(core.Dynamic, q, k)
		if err != nil {
			return 0, 0, err
		}
		refinements += int64(res.Stats.Refinements)
	}
	return time.Since(start).Seconds() / float64(len(queries)), refinements, nil
}

// shardSweep returns the shard-count axis: 1 (the single-node baseline
// through the coordinator), then powers of two up to max(4, workers).
func shardSweep(workers int) []int {
	max := workers
	if max < 4 {
		max = 4
	}
	sweep := []int{1}
	for s := 2; s <= max; s *= 2 {
		sweep = append(sweep, s)
	}
	return sweep
}

// maxK returns the largest configured k: the regime where the merged k
// has the most transfer to save.
func maxK(ks []int) int {
	m := ks[0]
	for _, k := range ks {
		if k > m {
			m = k
		}
	}
	return m
}
