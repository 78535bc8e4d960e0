package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/core"
	"rkranks/internal/server"
	"rkranks/internal/stats"
	"rkranks/internal/workload"
)

// ServingHTTP measures the full serving stack — HTTP decode, admission,
// pool dispatch, engine, JSON encode — under open-loop load: a fixed
// arrival rate regardless of completions, which is what real traffic does
// and what exposes queueing collapse past saturation. The experiment first
// calibrates the stack's closed-loop capacity, then sweeps offered load
// from comfortably below it to past it, reporting goodput and latency
// percentiles per point. Admission control converts overload into 429s
// instead of latency: past capacity, goodput should plateau (not
// collapse) while rejects absorb the excess.
func (r *Runner) ServingHTTP() (*stats.Table, error) {
	t := stats.NewTable("Serving over HTTP: open-loop offered load vs goodput and latency (Indexed, shared concurrent index)",
		"dataset", "offered (qps)", "achieved (qps)", "ok", "rejected", "timeout", "p50 (ms)", "p99 (ms)")
	k := defaultK(r.cfg.Ks)
	g := r.DBLP()
	seed, _, err := r.buildIndex(g, r.cfg.HubFrac, r.cfg.IndexFrac, r.cfg.Strategy, nil, nil)
	if err != nil {
		return nil, err
	}
	shared := seed.Snapshot().Sharded()
	pool, err := core.NewPoolWithIndex(g, core.Options{}, r.cfg.Workers, shared)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Pool:           pool,
		Graph:          g,
		DefaultTimeout: 2 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	queries := workload.Random(g, 4*r.cfg.Queries, r.cfg.Seed+31)

	// Calibrate: closed-loop burst through the same HTTP stack estimates
	// the capacity the sweep brackets.
	capacity, err := calibrateHTTP(ts.URL, queries, k)
	if err != nil {
		return nil, err
	}

	window := servingWindow(r.cfg.Queries)
	for _, frac := range []float64{0.5, 0.9, 1.5} {
		rate := capacity * frac
		if rate < 1 {
			rate = 1
		}
		res, err := server.RunLoad(context.Background(), server.LoadConfig{
			URL:       ts.URL,
			Algorithm: "indexed",
			Queries:   queries,
			K:         k,
			Rate:      rate,
			Duration:  window,
			Timeout:   2 * time.Second,
			Seed:      r.cfg.Seed + 37,
		})
		if err != nil {
			return nil, err
		}
		t.Add("dblp",
			fmt.Sprintf("%.0f", res.Offered),
			fmt.Sprintf("%.0f", res.Achieved),
			res.OK, res.Rejected, res.Deadline,
			fmt.Sprintf("%.2f", res.P50),
			fmt.Sprintf("%.2f", res.P99))
	}
	t.Note("calibrated capacity ~%.0f qps (closed loop); offered sweeps 0.5x/0.9x/1.5x of it over %v windows", capacity, window)
	t.Note("past saturation, admission control sheds load as 429s; goodput should plateau rather than collapse")
	return t, nil
}

// calibrateHTTP estimates end-to-end closed-loop throughput: one batch
// request per pool worker's worth of queries, timed.
func calibrateHTTP(url string, queries []int32, k int) (float64, error) {
	c := api.NewClient(url)
	n := len(queries)
	if n > 64 {
		n = 64
	}
	// Warm up connections and engine workspaces.
	if _, err := c.Query(context.Background(), "indexed", queries[0], k, 0); err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := c.Batch(context.Background(), "indexed", queries[:n], k, 30*time.Second); err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return float64(n), nil
	}
	return float64(n) / elapsed, nil
}

// servingWindow scales the per-point measurement window with the
// configured workload size: long enough at bench scale for stable
// percentiles, short enough at the Small test scale to keep the suite
// fast.
func servingWindow(queries int) time.Duration {
	w := time.Duration(queries) * 25 * time.Millisecond
	if w < 300*time.Millisecond {
		w = 300 * time.Millisecond
	}
	if w > 3*time.Second {
		w = 3 * time.Second
	}
	return w
}
