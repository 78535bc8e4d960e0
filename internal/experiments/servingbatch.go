package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"time"

	"rkranks/internal/cache"
	"rkranks/internal/cluster"
	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/rank"
	"rkranks/internal/server"
	"rkranks/internal/stats"
	"rkranks/internal/workload"
)

// minTimedBatches is the fewest batches a p99 cell of serving_batch or
// mutation summarises, at every scale: a p99 over a dozen batches is
// their maximum, which one scheduler hiccup sets.
const minTimedBatches = 100

// servingBatchShards fixes the cluster width of the serving_batch sweep:
// wide enough that batch scatter has RPCs to save, narrow enough that
// the Small scale stays fast.
const servingBatchShards = 2

// ServingBatch measures the two layers PR 5 adds on top of the sharded
// coordinator — batch scatter (one RPC per shard per batch instead of
// per query) and the coalescing response cache — against the uncached
// per-query-scatter baseline (the PR-4 stack), sweeping batch size and
// duplicate rate. The shards are REMOTE: real rkserve-style HTTP
// backends behind the wire protocol, so every scatter round trip pays
// genuine HTTP + JSON cost — the cost batch scatter exists to amortize
// (and what a per-query scatter pays once per shard per QUERY). Every
// merged result is asserted byte-identical to the baseline's before it
// counts.
//
// Hit rate, coalesced, and rpcs/query are deterministic for a fixed seed
// (sequential batches, serial per-shard pools), so benchdiff gates them
// machine-independently; the goodput and latency columns carry
// wall-clock noise and are gated laxly.
func (r *Runner) ServingBatch() (*stats.Table, error) {
	t := stats.NewTable("Batch scatter + coalescing response cache vs per-query uncached scatter (Dynamic, remote HTTP shards)",
		"dataset", "batch", "dup (%)", "goodput (q/s)", "baseline (q/s)", "speedup",
		"p99 (ms)", "hit rate (%)", "coalesced", "rpcs/query")
	k := defaultK(r.cfg.Ks)
	g := r.DBLP()
	n := 8 * r.cfg.Queries

	for _, batch := range []int{8, 32} {
		for _, dup := range []float64{0, 0.5} {
			stream := duplicateStream(g, n, dup, r.cfg.Seed+53)

			shards, shutdown, err := remoteShardBackends(g)
			if err != nil {
				return nil, err
			}
			coord, err := cluster.New(shards, cluster.Config{})
			if err != nil {
				shutdown()
				return nil, err
			}
			baseShards, baseShutdown, err := remoteShardBackends(g)
			if err != nil {
				shutdown()
				return nil, err
			}
			baseline, err := cluster.New(baseShards, cluster.Config{PerQueryScatter: true})
			if err != nil {
				shutdown()
				baseShutdown()
				return nil, err
			}

			baseRes, baseElapsed, _, err := runBatchStream(baseline, stream, batch, k)
			// The stream runs in passes, each over a fresh cache, until the
			// p99 summarises minTimedBatches batches; every pass sees the
			// same duplicates, so the cache columns read one pass.
			passes := (minTimedBatches*batch + n - 1) / n
			var lats []float64
			var elapsed time.Duration
			var cs cache.Snapshot
			for p := 0; p < passes && err == nil; p++ {
				var cached *cache.Backend
				if cached, err = cache.NewBackend(coord, cache.Config{MaxBytes: 8 << 20}); err != nil {
					break
				}
				var gotRes []*core.Result
				var el time.Duration
				var ls []float64
				if gotRes, el, ls, err = runBatchStream(cached, stream, batch, k); err != nil {
					break
				}
				for i := range stream {
					if !sameEntries(gotRes[i].Entries, baseRes[i].Entries) {
						err = fmt.Errorf("serving_batch: cached batch scatter diverged from baseline at query %d", stream[i])
						break
					}
				}
				lats = append(lats, ls...)
				elapsed += el
				cs = cached.Cache().Stats()
			}
			if err == nil {
				cl := coord.ClusterSnapshot().(*cluster.Snapshot)
				rpcsPerQuery, hitRate := 0.0, 0.0
				if cl.BatchQueries > 0 {
					rpcsPerQuery = float64(cl.BatchRPCs) / float64(cl.BatchQueries)
				}
				if lookups := cs.Hits + cs.Misses + cs.Coalesced; lookups > 0 {
					hitRate = float64(cs.Hits) / float64(lookups)
				}
				goodput := float64(passes*n) / elapsed.Seconds()
				baseGoodput := float64(n) / baseElapsed.Seconds()
				t.Add("dblp", batch, fmt.Sprintf("%.0f", 100*dup),
					fmt.Sprintf("%.0f", goodput),
					fmt.Sprintf("%.0f", baseGoodput),
					fmt.Sprintf("%.2fx", goodput/baseGoodput),
					fmt.Sprintf("%.2f", 1000*stats.Percentile(lats, 99)),
					fmt.Sprintf("%.0f%%", 100*hitRate),
					cs.Coalesced, fmt.Sprintf("%.2f", rpcsPerQuery))
			}
			_ = coord.Close()
			_ = baseline.Close()
			shutdown()
			baseShutdown()
			if err != nil {
				return nil, err
			}
		}
	}
	t.Note("%d queries per point over %d remote HTTP shards; duplicates repeat a uniformly random earlier stream position", n, servingBatchShards)
	t.Note("the cached+batched stack runs the stream in passes, each over a fresh cache, until its p99 covers at least %d batches", minTimedBatches)
	t.Note("every cached+batched result is asserted byte-identical to the uncached per-query baseline before it counts")
	t.Note("goodput gains compound: the cache elides duplicate engine work (bounding speedup at 1/(1-dup) on one core), batch scatter amortizes per-RPC cost and keeps every shard busy — the pipelining term needs multiple cores to show in wall clock")
	return t, nil
}

// remoteShardBackends boots one masked rkserve-equivalent HTTP server
// per shard over g (index-free Dynamic: every duplicate costs the
// baseline full engine work, so the cache's contribution is measured
// clean of the learning index's own memoization) and dials each as a
// RemoteShard, returning the backends plus a shutdown func.
func remoteShardBackends(g *graph.Graph) ([]cluster.ShardBackend, func(), error) {
	var servers []*httptest.Server
	shutdown := func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
	backends := make([]cluster.ShardBackend, servingBatchShards)
	for i := range backends {
		mask, err := cluster.ShardMask(g, cluster.DegreeBalanced{}, servingBatchShards, i, nil)
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		pool := core.NewPool(g, core.Options{Candidates: mask}, 1)
		srv, err := server.New(server.Config{Pool: pool, Graph: g})
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		servers = append(servers, ts)
		rs, err := cluster.NewRemoteShard(context.Background(), ts.URL, cluster.RemoteExpect{Nodes: g.N()})
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		backends[i] = rs
	}
	return backends, shutdown, nil
}

// sameEntries reports byte-identity of two canonical results.
func sameEntries(a, b []rank.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// duplicateStream builds a query stream where EXACTLY round(dup * n)
// positions repeat a uniformly random earlier position and the rest
// draw fresh queries — the duplicate-rate label is exact, not a
// coin-flip expectation. Repeats landing inside one batch exercise
// coalescing; repeats across batches exercise the cache.
func duplicateStream(g *graph.Graph, n int, dup float64, seed int64) []int32 {
	fresh := workload.Random(g, n, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	repeats := int(dup*float64(n) + 0.5)
	// Choose which positions repeat: a shuffle of 1..n-1, first `repeats`
	// win (position 0 has nothing to repeat).
	isRepeat := make([]bool, n)
	perm := rng.Perm(n - 1)
	for _, p := range perm[:min(repeats, n-1)] {
		isRepeat[p+1] = true
	}
	stream := make([]int32, n)
	next := 0
	for i := range stream {
		if isRepeat[i] {
			stream[i] = stream[rng.Intn(i)]
		} else {
			stream[i] = fresh[next]
			next++
		}
	}
	return stream
}

// runBatchStream issues the stream in fixed-size batches, returning the
// per-query results, total elapsed time, and each batch's latency in
// seconds.
func runBatchStream(b batchBackend, stream []int32, batch, k int) ([]*core.Result, time.Duration, []float64, error) {
	results := make([]*core.Result, 0, len(stream))
	var lats []float64
	start := time.Now()
	for lo := 0; lo < len(stream); lo += batch {
		hi := min(lo+batch, len(stream))
		t0 := time.Now()
		rs, err := b.QueryManyContext(context.Background(), core.Dynamic, stream[lo:hi], k)
		if err != nil {
			return nil, 0, nil, err
		}
		lats = append(lats, time.Since(t0).Seconds())
		results = append(results, rs...)
	}
	return results, time.Since(start), lats, nil
}

// batchBackend is the slice of the backend surface runBatchStream needs.
type batchBackend interface {
	QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error)
}
