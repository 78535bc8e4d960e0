package cluster

import (
	"context"
	"errors"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/obs"
)

// batchState accumulates one batch scatter's rounds.
//
// perShard[shard][qi] is shard's latest answer for batch query qi (nil
// when the shard has not answered it); the per-query merge reads one
// column of that matrix. Error folding mirrors gatherState, but a shard
// failure taints EVERY query of the batch that still needed the shard —
// with one RPC carrying them all, they fail or degrade together.
type batchState struct {
	perShard [][]*core.Result
	stats    []core.Stats
	partial  []bool

	maxShard    time.Duration
	transferred int
	rpcs        int
	answered    int // shards that answered the last round they were asked in
	overloaded  []int
	retryAfter  time.Duration
	fatal       error
	firstFail   *ShardError
}

// batchScatter answers a whole batch with at most two RPCs per shard:
// round one sends every query to every available shard at the reduced
// first-round k, then each query is merged independently and its
// uncertified shards are collected; round two sends each such shard one
// RPC with exactly the queries it must re-answer at full k. The
// per-query certification logic is unsettledShards — the same rule the
// single-query path uses — so every merged result is byte-identical to a
// per-query scatter (and to a single node).
func (c *Coordinator) batchScatter(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	if len(queries) == 0 {
		return []*core.Result{}, nil
	}
	start := time.Now()
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

	// Round 1: every query to every target shard, reduced k.
	all := make([]int, len(queries))
	for i := range all {
		all[i] = i
	}
	round1 := make(map[int][]int, len(targets))
	for _, shard := range targets {
		round1[shard] = all
	}
	k0 := c.firstRoundK(k, P)
	sctx := c.shardContext(ctx, k)
	c.batchRound(sctx, a, queries, k0, round1, st, obs.StageScatterRound1)
	if err := c.roundErrorBatch(st); err != nil {
		return nil, err
	}

	// Certify per query; group the escalations by shard.
	escalations := 0
	shortCircuited := 0
	if k0 < k {
		round2 := make(map[int][]int)
		column := make([]*core.Result, P)
		for qi := range queries {
			for s := 0; s < P; s++ {
				column[s] = st.perShard[s][qi]
			}
			merged := mergeTopK(column, k)
			escalate, settled := unsettledShards(column, merged, k)
			shortCircuited += settled
			for _, shard := range escalate {
				round2[shard] = append(round2[shard], qi)
			}
			escalations += len(escalate)
		}
		if len(round2) > 0 {
			c.batchRound(sctx, a, queries, k, round2, st, obs.StageScatterRound2)
			if err := c.roundErrorBatch(st); err != nil {
				return nil, err
			}
		}
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
	c.metrics.observeBatch(time.Since(start), st.maxShard, st.rpcs, len(queries),
		st.transferred, escalations, shortCircuited)
	return results, nil
}

// batchRound issues one RPC per requested shard, carrying that shard's
// query subset, and folds the outcomes into st. reqs maps shard id to
// the batch positions it must answer at k.
func (c *Coordinator) batchRound(ctx context.Context, a core.Algorithm, queries []int32, k int, reqs map[int][]int, st *batchState, stage obs.Stage) {
	tr := obs.FromContext(ctx)
	psp := tr.Begin(stage)
	psp.SetAttr("shards", int64(len(reqs)))
	psp.SetAttr("k", int64(k))
	type out struct {
		shard   int
		idxs    []int
		res     []*core.Result
		err     error
		elapsed time.Duration
	}
	outs := make(chan out, len(reqs))
	for shard, idxs := range reqs {
		go func(shard int, idxs []int) {
			qs := make([]int32, len(idxs))
			for j, qi := range idxs {
				qs[j] = queries[qi]
			}
			sm := c.metrics.shards[shard]
			sm.inFlight.Add(1)
			csp := tr.BeginShard(stage, shard)
			csp.SetAttr("queries", int64(len(qs)))
			t0 := time.Now()
			res, err := c.backends[shard].QueryBatch(ctx, a, qs, k)
			elapsed := time.Since(t0)
			if err != nil {
				csp.SetAttr("error", 1)
			}
			tr.End(csp)
			sm.inFlight.Add(-1)
			c.metrics.observeShard(shard, elapsed, err)
			failure := err != nil && !fatalQueryError(err)
			if _, isOverload := overloadHint(err); isOverload {
				failure = false // shedding load is the admission layer working, not ill health
			}
			c.health[shard].record(!failure, c.cfg.failureThreshold(), c.cfg.retryBackoff())
			outs <- out{shard: shard, idxs: idxs, res: res, err: err, elapsed: elapsed}
		}(shard, idxs)
	}

	for range reqs {
		o := <-outs
		st.rpcs++
		if o.err == nil {
			st.answered++
			for j, qi := range o.idxs {
				res := o.res[j]
				st.perShard[o.shard][qi] = res
				st.stats[qi].Add(res.Stats)
				st.transferred += len(res.Entries)
				if res.Partial {
					st.partial[qi] = true
				}
			}
			if o.elapsed > st.maxShard {
				st.maxShard = o.elapsed
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
		// Availability failure: every query that still needed this shard
		// degrades (earlier-round answers, if any, keep serving).
		for _, qi := range o.idxs {
			st.partial[qi] = true
		}
		if st.firstFail == nil {
			st.firstFail = &ShardError{Shard: o.shard, Err: o.err}
		}
	}
	tr.End(psp)
}

// roundErrorBatch is roundError for batch rounds.
func (c *Coordinator) roundErrorBatch(st *batchState) error {
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
