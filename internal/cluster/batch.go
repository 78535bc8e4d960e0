package cluster

import (
	"context"
	"errors"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/obs"
)

// batchState accumulates one batch scatter's shard answers.
//
// perShard[shard][qi] is shard's answer for batch query qi (nil when the
// shard has not answered it); the per-query merge reads one column of
// that matrix. Error folding mirrors gatherState, but a shard failure
// taints EVERY query of the batch — with one RPC carrying them all, they
// fail or degrade together.
type batchState struct {
	perShard [][]*core.Result
	stats    []core.Stats
	partial  []bool

	transferred int
	rpcs        int
	answered    int // shards that answered
	overloaded  []int
	retryAfter  time.Duration
	fatal       error
	firstFail   *ShardError
}

// batchScatter answers a whole batch with one RPC per available shard:
// every query goes to every shard at k, with k as the merged k, and each
// query is merged on its own with mergeTopK, the rule the single-query
// path uses, so every merged result is byte-identical to a per-query
// scatter (and to a single node).
func (c *Coordinator) batchScatter(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	if len(queries) == 0 {
		return []*core.Result{}, nil
	}
	P := len(c.backends)

	targets, skipped := c.availableShards()
	if len(skipped) > 0 && c.cfg.StrictConsistency {
		for _, i := range targets {
			c.health[i].releaseProbe()
		}
		return nil, &ShardError{Shard: skipped[0], Err: errors.New("tripped by health tracking")}
	}
	if len(targets) == 0 {
		return nil, &ShardError{Shard: skipped[0], Err: errors.New("no shard available")}
	}

	st := &batchState{
		perShard: make([][]*core.Result, P),
		stats:    make([]core.Stats, len(queries)),
		partial:  make([]bool, len(queries)),
	}
	for i := range st.perShard {
		st.perShard[i] = make([]*core.Result, len(queries))
	}
	if len(skipped) > 0 {
		for qi := range st.partial {
			st.partial[qi] = true
		}
	}

	c.batchGather(c.shardContext(ctx, k), a, queries, k, targets, st)
	if err := c.batchGatherError(st); err != nil {
		return nil, err
	}

	if st.answered == 0 {
		if st.firstFail != nil {
			return nil, st.firstFail
		}
		return nil, &ShardError{Shard: targets[0], Err: errors.New("no shard answered")}
	}

	results := make([]*core.Result, len(queries))
	column := make([]*core.Result, P)
	var skewed []int
	for qi, q := range queries {
		for s := 0; s < P; s++ {
			column[s] = st.perShard[s][qi]
		}
		gen, skew := commonGeneration(column)
		if skew {
			// A mutation batch landed between this query's shard answers;
			// its column cannot be merged. Collect it for a clean re-scatter
			// below instead of failing the whole batch.
			skewed = append(skewed, qi)
			continue
		}
		results[qi] = &core.Result{
			Query:      q,
			K:          k,
			Entries:    mergeTopK(column, k),
			Partial:    st.partial[qi],
			Generation: gen,
			Stats:      st.stats[qi],
		}
	}
	// Re-scatter skewed queries one by one through the single-query path,
	// which carries its own skew retry loop; a failure there means the
	// shards genuinely diverged and the batch surfaces it.
	for _, qi := range skewed {
		res, err := c.QueryContext(ctx, a, queries[qi], k)
		if err != nil {
			return nil, err
		}
		results[qi] = res
	}
	// Transfer counts entries over every (shard, query) pair, as the
	// per-query path does, so the counter means the same in both modes.
	c.om.ClusterBatches.Inc()
	c.om.ClusterBatchRPCs.Add(int64(st.rpcs))
	c.om.ClusterBatchQueries.Add(int64(len(queries)))
	c.om.ClusterTransferred.Add(int64(st.transferred))
	return results, nil
}

// batchGather issues one RPC per target shard, carrying the whole
// batch, and folds the outcomes into st.
func (c *Coordinator) batchGather(ctx context.Context, a core.Algorithm, queries []int32, k int, targets []int, st *batchState) {
	tr := obs.FromContext(ctx)
	psp := tr.Begin(obs.StageScatter)
	psp.SetAttr("shards", int64(len(targets)))
	psp.SetAttr("k", int64(k))
	type out struct {
		shard int
		res   []*core.Result
		err   error
	}
	outs := make(chan out, len(targets))
	for _, shard := range targets {
		go func(shard int) {
			csp := tr.BeginShard(obs.StageScatter, shard)
			csp.SetAttr("queries", int64(len(queries)))
			res, err := c.backends[shard].QueryManyContext(ctx, a, queries, k)
			if err != nil {
				csp.SetAttr("error", 1)
			}
			tr.End(csp)
			c.recordShard(shard, err)
			outs <- out{shard: shard, res: res, err: err}
		}(shard)
	}

	for range targets {
		o := <-outs
		st.rpcs++
		if o.err == nil {
			st.answered++
			for qi, res := range o.res {
				st.perShard[o.shard][qi] = res
				st.stats[qi].Add(res.Stats)
				st.transferred += len(res.Entries)
				if res.Partial {
					st.partial[qi] = true
				}
			}
			continue
		}
		if fatalQueryError(o.err) {
			if st.fatal == nil {
				st.fatal = o.err
			}
			continue
		}
		if ra, ok := overloadHint(o.err); ok {
			st.overloaded = append(st.overloaded, o.shard)
			if ra > st.retryAfter {
				st.retryAfter = ra
			}
			continue
		}
		// Availability failure: every query of the batch degrades.
		for qi := range st.partial {
			st.partial[qi] = true
		}
		if st.firstFail == nil {
			st.firstFail = &ShardError{Shard: o.shard, Err: o.err}
		}
	}
	tr.End(psp)
}

// batchGatherError is gatherError for a batch scatter.
func (c *Coordinator) batchGatherError(st *batchState) error {
	if st.fatal != nil {
		return st.fatal
	}
	if len(st.overloaded) > 0 {
		return &OverloadedError{Shards: st.overloaded, RetryAfter: st.retryAfter}
	}
	if c.cfg.StrictConsistency && st.firstFail != nil {
		return st.firstFail
	}
	return nil
}
