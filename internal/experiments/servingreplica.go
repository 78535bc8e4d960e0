package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rkranks/internal/cluster"
	"rkranks/internal/core"
	"rkranks/internal/obs"
	"rkranks/internal/stats"
	"rkranks/internal/workload"
)

// deadReplica wraps a shard backend whose query path always fails — the
// experiment's stand-in for a crashed replica. The group marks it
// unhealthy on the first attempt (FailureThreshold 1) and, with a
// retry backoff far longer than the run, never probes it again, so the
// failover count is exactly one per shard group regardless of machine
// speed: a deterministic column benchdiff can gate strictly.
type deadReplica struct {
	cluster.ShardBackend
}

var errReplicaDead = errors.New("experiments: replica down")

// minTimedQueries is the fewest queries a mean (ms) cell of
// serving_replica and serving_cluster averages, at every scale, as
// minTimedBatches is for batches: a mean of a dozen sub-millisecond
// queries moves with one scheduler hiccup.
const minTimedQueries = 100

func (d *deadReplica) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	return nil, errReplicaDead
}

func (d *deadReplica) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	return nil, errReplicaDead
}

// ServingReplica measures replica-set serving (internal/cluster's
// ReplicaGroup): the same scatter-gather workload as serving_cluster,
// but with each shard served by a two-replica group whose first replica
// is dead. Answers stay byte-identical and non-Partial — the healthy
// sibling absorbs every query after one counted failover per group —
// so the work counters (failovers, transferred entries, refinements)
// are deterministic for a fixed seed and benchdiff gates them; the
// latency column carries wall-clock noise and is gated laxly.
func (r *Runner) ServingReplica() (*stats.Table, error) {
	t := stats.NewTable("Serving from replica sets: transparent failover with one dead replica per shard group (Dynamic)",
		"dataset", "shards", "replicas", "mean (ms)",
		"failovers", "transferred (entries)", "refinements")
	k := maxK(r.cfg.Ks)
	g := r.DBLP()
	queries := workload.Random(g, max(r.cfg.Queries, minTimedQueries), r.cfg.Seed+47)

	for _, shards := range shardSweep(r.cfg.Workers) {
		om := obs.NewMetrics(nil)
		cfg := cluster.Config{
			Metrics:          om,
			FailureThreshold: 1,
			RetryBackoff:     time.Hour,
		}
		backends := make([]cluster.ShardBackend, shards)
		for i := 0; i < shards; i++ {
			mask, err := cluster.ShardMask(g, cluster.DegreeBalanced{}, shards, i, nil)
			if err != nil {
				return nil, err
			}
			members := make([]cluster.ShardBackend, 2)
			for j := range members {
				pool := core.NewPool(g, core.Options{Candidates: mask}, 1)
				if j == 0 {
					members[j] = &deadReplica{ShardBackend: pool}
				} else {
					members[j] = pool
				}
			}
			rg, err := cluster.NewReplicaGroup(members, cfg)
			if err != nil {
				return nil, err
			}
			backends[i] = rg
		}
		coord, err := cluster.New(backends, cfg)
		if err != nil {
			return nil, err
		}
		mean, refinements, err := runClusterBatch(coord, queries, k)
		if err != nil {
			return nil, err
		}
		cs := coord.ClusterSnapshot().(*cluster.Snapshot)
		t.Add("dblp", shards, 2,
			fmt.Sprintf("%.3f", 1000*mean),
			om.ReplicaFailovers.Value(),
			cs.EntriesTransferred, refinements)
		_ = coord.Close()
	}
	t.Note("%d queries per point, k=%d; replica 0 of every group is dead, results stay byte-identical and non-Partial", len(queries), k)
	t.Note("failovers counts queries that attempted a dead replica before a sibling answered: exactly one per group (threshold 1, backoff > run)")
	return t, nil
}
