// HTTP serving: the full production surface in one process. Boots the
// internal/server layer (the same one cmd/rkserve wraps) over a pool
// sharing a concurrent index, drives it with mixed HTTP traffic — single
// queries, a batch, a deliberately bad request, a deliberately impossible
// deadline — then drains gracefully and prints the /metrics series the
// operators would scrape.
//
// Run with: go run ./examples/httpserving
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"rkranks"
	"rkranks/internal/server"
)

func main() {
	// A synthetic collaboration graph standing in for production data.
	g, err := buildGraph(3000, 21)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := rkranks.BuildIndex(g, rkranks.IndexParams{
		HubFraction: 0.1, RankFraction: 0.1, MaxK: 50,
		Strategy: rkranks.DegreeHubs,
	})
	if err != nil {
		log.Fatal(err)
	}
	pool, err := rkranks.NewPoolWithIndex(g, rkranks.Options{}, 0, ix)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := server.New(server.Config{
		Pool:           pool,
		Graph:          g,
		DefaultTimeout: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("serving %d-node graph at %s (pool %d engines, shared index)\n\n",
		g.N(), ts.URL, pool.Size())

	client := rkranks.NewClient(ts.URL)
	ctx := context.Background()

	// Concurrent clients: every query's refinements improve the shared
	// index for everyone.
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(7))
	queries := make([]int32, 200)
	for i := range queries {
		queries[i] = int32(rng.Intn(g.N()))
	}
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := client.Query(ctx, "", queries[(c*25+i)%len(queries)], 10, 0); err != nil {
					log.Printf("query: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()

	// One batch, answered in input order through Pool.QueryMany.
	batch, err := client.Batch(ctx, "indexed", []int32{1, 2, 3, 4, 5}, 5, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch of %d answered; q=%d top entry: node %d at rank %d\n",
		len(batch.Results), batch.Results[0].Query,
		batch.Results[0].Entries[0].Node, batch.Results[0].Entries[0].Rank)

	// The error surface: validation is 400/invalid_argument, an impossible
	// deadline is 504/deadline_exceeded.
	if _, err := client.Query(ctx, "bogus", 1, 5, 0); err != nil {
		fmt.Printf("bad algorithm   -> %v\n", err)
	}
	if _, err := client.Query(ctx, "naive", 1, 500, time.Millisecond); err != nil {
		fmt.Printf("1ms deadline    -> %v\n", err)
	}

	// Graceful drain: stop admission, finish in-flight, report.
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Fatal(err)
	}
	if _, err := client.Query(ctx, "", 1, 5, 0); err != nil {
		fmt.Printf("after drain     -> %v\n", err)
	}

	// What an operator scrapes: requests by route, the query route's
	// latency histogram (sum and count give the mean), and the engine's
	// index hits against its refinements.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Println("\n/metrics:")
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		for _, name := range []string{
			"rkranks_requests_total{",
			`rkranks_request_duration_seconds_sum{route="query"}`,
			`rkranks_request_duration_seconds_count{route="query"}`,
			"rkranks_engine_index_hits_total ",
			"rkranks_engine_refinements_total ",
		} {
			if strings.HasPrefix(sc.Text(), name) {
				fmt.Println(sc.Text())
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

// buildGraph assembles a DBLP-like collaboration graph via the public
// builder API.
func buildGraph(n int, seed int64) (*rkranks.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	b := rkranks.NewBuilder(false)
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = b.AddNode()
	}
	for i := 1; i < n; i++ {
		// Preferential attachment by sampling earlier nodes.
		for d := 0; d < 4; d++ {
			j := rng.Intn(i)
			w := 0.5 + rng.Float64()
			if err := b.AddEdge(ids[i], ids[j], w); err != nil {
				return nil, err
			}
		}
	}
	return b.Finalize(), nil
}
