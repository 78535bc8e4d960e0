// Serving: a production-shaped setup for heavy query traffic. One
// concurrency-safe index (built in parallel, lock-striped inside) is
// shared by a pool of engines. Two throughput mechanisms are shown:
// batch execution (QueryMany runs each engine's share of a batch as one
// shared-traversal batch, replaying refinement settle logs across its
// queries), and per-query Indexed traffic where every query's rank
// refinements feed the shared dictionaries, so the index keeps getting
// better for everyone as traffic flows.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rkranks"
)

func main() {
	// A synthetic social graph standing in for production data: 4000
	// users, preferential attachment, weighted ties.
	g := socialGraph(4000, 5, 42)

	// Build the shared index once at startup. BuildIndex uses all cores
	// and returns a lock-striped index the whole pool may share.
	start := time.Now()
	ix, err := rkranks.BuildIndex(g, rkranks.IndexParams{
		HubFraction:  0.1,
		RankFraction: 0.1,
		MaxK:         50,
		Strategy:     rkranks.DegreeHubs,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d entries (~%d KB), built in %v\n",
		ix.Entries(), ix.SizeBytes()/1024, time.Since(start).Round(time.Millisecond))

	// One pool, one shared index, GOMAXPROCS engines.
	pool, err := rkranks.NewPoolWithIndex(g, rkranks.Options{}, 0, ix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pool: %d engines on %d CPU(s)\n\n", pool.Size(), runtime.NumCPU())

	// Phase 1 — batch execution. QueryMany groups the queries per engine
	// into shared-traversal batches: a refinement whose settle log was
	// recorded for an earlier query of the batch is replayed instead of
	// re-searched, and results stay byte-identical to the per-query path.
	// Dynamic shows the executor itself at work; on Indexed pools the
	// learned dictionaries absorb most repeat candidates before batching
	// even sees them — complementary mechanisms, demonstrated separately.
	const requests = 2000
	rng := rand.New(rand.NewSource(7))
	queryset := make([]int32, requests)
	for i := range queryset {
		queryset[i] = int32(rng.Intn(g.N()))
	}
	startBatch := time.Now()
	results, err := pool.QueryMany(rkranks.Dynamic, queryset[:500], 10)
	if err != nil {
		log.Fatal(err)
	}
	batchElapsed := time.Since(startBatch)
	var refines, shared int
	for _, res := range results {
		refines += res.Stats.Refinements
		shared += res.Stats.SharedTraversals
	}
	fmt.Printf("batched %d Dynamic queries in %v (%.0f QPS)\n",
		len(results), batchElapsed.Round(time.Millisecond),
		float64(len(results))/batchElapsed.Seconds())
	fmt.Printf("%d of %d refinements served by settle-log replay (reuse ratio %.2f)\n\n",
		shared, refines, float64(shared)/float64(refines))

	// Phase 2 — a burst of per-query traffic on the now-warm index: many
	// more request goroutines than engines, all asking "whose short list
	// would user q make?".
	const clients = 32
	var served, refinements atomic.Int64
	queries := make(chan int32, clients)
	var wg sync.WaitGroup
	startServe := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queries {
				res, err := pool.Query(rkranks.Indexed, q, 10)
				if err != nil {
					log.Fatal(err)
				}
				served.Add(1)
				refinements.Add(int64(res.Stats.Refinements))
			}
		}()
	}
	for _, q := range queryset {
		queries <- q
	}
	close(queries)
	wg.Wait()
	elapsed := time.Since(startServe)

	fmt.Printf("served %d Indexed queries in %v (%.0f QPS aggregate)\n",
		served.Load(), elapsed.Round(time.Millisecond),
		float64(served.Load())/elapsed.Seconds())
	fmt.Printf("avg %.2f refinements/query; index grew to %d entries from query feedback\n",
		float64(refinements.Load())/float64(served.Load()), ix.Entries())

	// The index survives restarts, learned entries included.
	fmt.Println("\n(SaveIndex + LoadIndex persists the learned index across restarts)")
}

// socialGraph grows a preferential-attachment graph: each newcomer links
// to m earlier users, favoring well-connected ones, with tie strengths in
// (0.5, 1.5).
func socialGraph(n, m int, seed int64) *rkranks.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := rkranks.NewBuilder(false)
	b.EnsureNodes(n)
	targets := []int32{0}
	for v := int32(1); v < int32(n); v++ {
		seen := map[int32]bool{}
		for e := 0; e < m && int(v) > e; e++ {
			t := targets[rng.Intn(len(targets))]
			if t == v || seen[t] {
				continue
			}
			seen[t] = true
			b.MustAddEdge(v, t, 0.5+rng.Float64())
			targets = append(targets, t)
		}
		targets = append(targets, v)
	}
	return b.Finalize()
}
