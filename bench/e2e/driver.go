package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/graph"
	"rkranks/internal/obs"
)

// senders is the client's concurrency, one goroutine per connection.
// Each sleeps until its next request is due, so an idle one costs
// nothing, but a sender waiting on a slow answer cannot send: with two,
// a pair of heavy cluster queries (300 ms each, about one in 150) held
// both, and the twenty requests due meanwhile waited for a connection,
// which made cluster-scatter's p95 jump between 20 and 200 ms from run to
// run. In the closed loop, four requests in flight keep both of the
// host's CPUs busy; with two, each CPU idled while its sender's answer
// crossed the loopback, and serve-hot's throughput varied half again as
// much from run to run.
const senders = 4

// requestTimeout bounds one request. A failed request counts as taking
// this long in the latency percentiles.
const requestTimeout = 10 * time.Second

// outcome is what the driver observed for one request.
type outcome struct {
	mutate bool
	late   time.Duration // open loop: how far past its due time the pacer woke
	wait   time.Duration // open loop: how long it waited for a free connection
	lat    time.Duration // open loop: due to response; closed loop: send to response
	end    time.Duration // response, from the phase start
	failed bool          // error, 429, timeout, partial or wrong answer
	wrong  bool          // an answer that breaks the result contract
}

// appliedBatch is one mutation batch with the generation it produced.
type appliedBatch struct {
	gen uint64
	ms  []graph.Mutation
}

// driver sends requests to the front server over senders connections,
// each owned by one goroutine with its own client and pacer.
type driver struct {
	clients [senders]*api.Client
	pacers  [senders]*pacer
	n       int // graph nodes: an answer holds min(k, n-1) entries
	tr      *tracer
	traced  atomic.Int64 // request IDs handed out to traced requests

	mu      sync.Mutex
	applied []appliedBatch
}

func newDriver(s *stack) (*driver, error) {
	d := &driver{n: s.g.N(), tr: s.tr}
	for i := range d.clients {
		d.clients[i] = api.NewClient(s.url)
		p, err := newPacer()
		if err != nil {
			d.close()
			return nil, err
		}
		d.pacers[i] = p
	}
	return d, nil
}

func (d *driver) close() {
	for _, p := range d.pacers {
		if p != nil {
			p.close()
		}
	}
}

// run sends reqs and returns their outcomes.
// With rate > 0 it is an open loop: request i is due at i/rate seconds
// after the start, and each sender sleeps on its pacer (never spins: the
// client shares the host's CPUs with the servers) until the next due
// request; latency runs from the due time. With rate 0 it is a closed
// loop: each sender sends its next request as soon as the last one
// returns. With ids set, requests carry IDs, unique over the driver's
// life, that mark them traced.
func (d *driver) run(ctx context.Context, reqs []request, rate float64, ids bool) []outcome {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func(c *api.Client, p *pacer) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := &outs[i]
				sent := time.Now()
				from := sent
				if rate > 0 {
					from = start.Add(time.Duration(i) * interval)
					if sent.Before(from) {
						if err := p.sleepUntil(from); err != nil {
							o.failed, o.lat = true, requestTimeout
							continue
						}
						sent = time.Now()
						o.late = sent.Sub(from)
					} else {
						o.wait = sent.Sub(from)
					}
				}
				rid := ""
				if ids {
					rid = fmt.Sprintf("%s%d", tracedPrefix, d.traced.Add(1))
				}
				o.mutate = reqs[i].muts != nil
				o.failed, o.wrong = d.send(ctx, c, reqs[i], rid)
				end := time.Now()
				o.lat = end.Sub(from)
				o.end = end.Sub(start)
				if o.failed {
					o.lat = requestTimeout
				}
				if d.tr != nil {
					name := "client"
					if o.mutate {
						name = "client.mutate"
					}
					d.tr.record(rid, name, "", "", sent, end)
				}
			}
		}(d.clients[s], d.pacers[s])
	}
	wg.Wait()
	return outs
}

// send issues one request and reports whether it failed and whether the
// answer was wrong.
func (d *driver) send(ctx context.Context, c *api.Client, r request, rid string) (failed, wrong bool) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	if rid != "" {
		// The trace only carries the ID: api.Client forwards it as
		// X-Request-Id, and the servers adopt it.
		t := obs.NewTrace(rid, "bench")
		defer t.Release()
		ctx = obs.ContextWithTrace(ctx, t)
	}
	if r.muts != nil {
		resp, err := c.Mutate(ctx, r.muts, 0)
		if err != nil {
			return true, false
		}
		d.mu.Lock()
		d.applied = append(d.applied, appliedBatch{resp.Generation, r.muts})
		d.mu.Unlock()
		return false, false
	}
	resp, err := c.Query(ctx, r.algo, r.q, r.k, 0)
	if err != nil {
		return true, false
	}
	if err := checkShape(resp, r, d.n); err != nil {
		return true, true
	}
	return resp.Partial, false
}

// checkShape checks what every answer must satisfy without a reference:
// it answers the query asked, holds min(k, n-1) entries (every workload
// graph is connected), and is ordered by (rank, node).
func checkShape(resp *api.QueryResponse, r request, n int) error {
	if resp.Query != r.q || resp.K != r.k {
		return fmt.Errorf("answer for (q=%d, k=%d), asked (q=%d, k=%d)", resp.Query, resp.K, r.q, r.k)
	}
	if want := min(r.k, n-1); len(resp.Entries) != want {
		return fmt.Errorf("q=%d k=%d: %d entries, want %d", r.q, r.k, len(resp.Entries), want)
	}
	for i := 1; i < len(resp.Entries); i++ {
		a, b := resp.Entries[i-1], resp.Entries[i]
		if a.Rank > b.Rank || (a.Rank == b.Rank && a.Node >= b.Node) {
			return fmt.Errorf("q=%d: entries %d and %d out of (rank, node) order", r.q, i-1, i)
		}
	}
	return nil
}
