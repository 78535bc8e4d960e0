package server

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/stats"
)

// LoadConfig drives RunLoad, an open-loop load generator: requests are
// launched on a fixed arrival schedule regardless of how fast responses
// come back, which is what exposes queueing collapse — a closed loop
// (wait-then-send) self-throttles and hides it (the coordinated-omission
// trap).
type LoadConfig struct {
	// URL is the server base, e.g. "http://127.0.0.1:8080".
	URL string
	// Algorithm is the per-request algorithm; empty uses the server
	// default.
	Algorithm string
	// Queries is the query-node population, sampled uniformly per request.
	Queries []int32
	// K is the per-request result size.
	K int
	// Rate is the offered load in requests/second.
	Rate float64
	// Duration is how long arrivals are generated.
	Duration time.Duration
	// Timeout is the per-request deadline passed to the server (and
	// enforced client-side at 2x); <= 0 means 5s.
	Timeout time.Duration
	// MaxOutstanding caps concurrently outstanding requests; arrivals
	// beyond it are dropped client-side and counted as Shed. <= 0 means
	// 4096.
	MaxOutstanding int
	// Seed drives query sampling.
	Seed int64
}

// LoadResult aggregates one load run.
type LoadResult struct {
	Offered  float64       // configured arrival rate (req/s)
	Sent     int           // requests actually launched
	Shed     int           // arrivals dropped client-side (MaxOutstanding)
	OK       int           // HTTP 200
	Rejected int           // HTTP 429 (server admission)
	Deadline int           // HTTP 504 / client-side timeout
	Errors   int           // everything else
	Elapsed  time.Duration // arrival window plus drain
	Achieved float64       // OK / Elapsed (goodput, req/s)

	// Latency percentiles over successful requests, in milliseconds.
	P50, P90, P99, Mean float64
}

// RunLoad generates cfg.Rate arrivals/second against cfg.URL for
// cfg.Duration, waits for stragglers, and aggregates. ctx cancels the run
// early (the partial result is still returned).
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 4096
	}
	client := api.NewClient(cfg.URL)
	rng := rand.New(rand.NewSource(cfg.Seed))

	res := &LoadResult{Offered: cfg.Rate}
	var (
		mu        sync.Mutex
		latencies []float64
		wg        sync.WaitGroup
	)
	outstanding := make(chan struct{}, cfg.MaxOutstanding)

	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	start := time.Now()
	total := int(cfg.Rate * cfg.Duration.Seconds())

	// Deadline-scheduled arrivals (the wrk2 scheme): arrival i is due at
	// start + i*interval, and every overdue arrival launches immediately
	// rather than being skipped. A time.Ticker would silently DROP missed
	// ticks, stretching the schedule exactly when the system slows down —
	// the coordinated-omission trap an open-loop generator exists to
	// avoid.
arrivals:
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break arrivals
			}
		} else if ctx.Err() != nil {
			break arrivals
		}
		q := cfg.Queries[rng.Intn(len(cfg.Queries))]
		select {
		case outstanding <- struct{}{}:
		default:
			res.Shed++
			continue
		}
		res.Sent++
		wg.Add(1)
		go func(q int32) {
			defer wg.Done()
			defer func() { <-outstanding }()
			// Client-side cap at 2x the server deadline: a hung connection
			// must not stall the drain below.
			rctx, cancel := context.WithTimeout(context.Background(), 2*cfg.Timeout)
			defer cancel()
			reqStart := time.Now()
			_, err := client.Query(rctx, api.Algorithm(cfg.Algorithm), q, cfg.K, cfg.Timeout)
			lat := time.Since(reqStart).Seconds()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				res.OK++
				latencies = append(latencies, lat)
			case isStatus(err, 429):
				res.Rejected++
			case isStatus(err, 504), rctx.Err() != nil:
				res.Deadline++
			default:
				res.Errors++
			}
		}(q)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if res.Elapsed > 0 {
		res.Achieved = float64(res.OK) / res.Elapsed.Seconds()
	}
	if len(latencies) > 0 {
		res.P50 = 1000 * stats.Percentile(latencies, 50)
		res.P90 = 1000 * stats.Percentile(latencies, 90)
		res.P99 = 1000 * stats.Percentile(latencies, 99)
		res.Mean = 1000 * stats.Mean(latencies)
	}
	return res, ctx.Err()
}

func isStatus(err error, status int) bool {
	var se *api.StatusError
	return errors.As(err, &se) && se.Status == status
}
