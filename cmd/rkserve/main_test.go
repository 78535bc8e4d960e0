package main

import (
	"bufio"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/cluster"
	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/server"
)

// TestServeQueryAndSigtermDrain boots the real binary path (run) on an
// ephemeral port, serves queries, then delivers an actual SIGTERM
// mid-flight and asserts the drain contract: every in-flight request
// completes, late arrivals get 503, and run returns cleanly.
func TestServeQueryAndSigtermDrain(t *testing.T) {
	logger := slog.New(slog.DiscardHandler)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-gen", "dblp", "-gen-nodes", "2500",
			"-build-index", "-index-k", "20", "-index-h", "0.05", "-index-m", "0.05",
			"-pool", "2", "-access-log=false",
		}, logger, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server never became ready")
	}
	c := api.NewClient("http://" + addr)

	doc, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("healthz: %v (%v)", err, doc)
	}
	if doc["indexed"] != true {
		t.Errorf("healthz reports no index: %v", doc)
	}
	resp, err := c.Query(context.Background(), "", 3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Algorithm != "indexed" || len(resp.Entries) != 5 {
		t.Errorf("query response: %+v", resp)
	}

	// Slow in-flight queries, then SIGTERM mid-flight.
	const n = 2
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Query(context.Background(), "naive", int32(i), 500, 30*time.Second)
		}(i)
	}
	// Give the slow queries time to be admitted before the signal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := metric(t, "http://"+addr, "rkranks_in_flight_requests"); v >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow queries never in flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("in-flight query %d dropped by SIGTERM drain: %v", i, err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server never exited after SIGTERM")
	}
}

// TestFlagValidation covers the mutually exclusive / missing flag paths,
// and the flags a coordinator refuses before it loads the graph (the
// missing -graph file would otherwise be the error).
func TestFlagValidation(t *testing.T) {
	logger := slog.New(slog.DiscardHandler)
	cases := [][]string{
		{},                                // no graph source
		{"-graph", "a", "-gen", "dblp"},   // both sources
		{"-gen", "nope"},                  // unknown generator
		{"-gen", "dblp", "-shard", "2"},   // malformed shard spec
		{"-gen", "dblp", "-shard", "4/4"}, // shard index out of range
		{"-gen", "dblp", "-shard", "0/2", "-shard-partitioner", "nope"},           // unknown partitioner
		{"-gen", "dblp", "-topology", filepath.Join(t.TempDir(), "missing.json")}, // unreadable topology
	}
	for _, args := range cases {
		if err := run(args, logger, nil); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}

	local := writeTopology(t, `{"local": {"shards": 2}}`)
	remote := writeTopology(t, `{"shards": [{"replicas": ["http://127.0.0.1:1"]}]}`)
	refused := []struct {
		topo string
		flag []string
	}{
		{local, []string{"-shard", "0/2"}},
		{local, []string{"-shard-partitioner", "degree"}},
		{local, []string{"-index-follow", "http://127.0.0.1:1"}},
		{local, []string{"-index-sync", "1s"}},
		{remote, []string{"-shard", "0/2"}},
		{remote, []string{"-index", "g.ridx"}},
		{remote, []string{"-build-index"}},
		{remote, []string{"-index-h", "0.2"}},
		{remote, []string{"-index-m", "0.2"}},
		{remote, []string{"-index-k", "5"}},
		{remote, []string{"-hub-load", "g.rkhl"}},
		{remote, []string{"-hub-save", "g.rkhl"}},
		{remote, []string{"-hub-count", "5"}},
		{remote, []string{"-hub-strategy", "random"}},
		{remote, []string{"-hub-workers", "2"}},
		{remote, []string{"-live"}},
		{remote, []string{"-pool", "2"}},
	}
	for _, tc := range refused {
		args := append([]string{"-graph", filepath.Join(t.TempDir(), "missing.rkg"), "-topology", tc.topo}, tc.flag...)
		err := run(args, logger, nil)
		if err == nil || !strings.Contains(err.Error(), tc.flag[0]+" ") {
			t.Errorf("args %v: err = %v, want %s refused", args, err, tc.flag[0])
		}
	}
}

// TestShardFlagMasksCandidates boots rkserve as shard 1 of 2 (modulo) and
// checks it only ever answers with its own vertices — the contract a
// coordinator (-topology) depends on.
func TestShardFlagMasksCandidates(t *testing.T) {
	logger := slog.New(slog.DiscardHandler)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-gen", "dblp", "-gen-nodes", "800",
			"-shard", "1/2",
			"-pool", "1", "-access-log=false",
		}, logger, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server never became ready")
	}
	c := api.NewClient("http://" + addr)
	resp, err := c.Query(context.Background(), "dynamic", 4, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) == 0 {
		t.Fatal("shard answered nothing")
	}
	for _, e := range resp.Entries {
		if e.Node%2 != 1 {
			t.Errorf("entry %+v is not owned by shard 1 of 2 (modulo)", e)
		}
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("server never exited after SIGTERM")
	}
}

// TestCacheFlagServesRepeatsFromCache boots rkserve with -cache-mb and
// asserts a repeated query hits the response cache (the cache counters
// on /metrics move) while answering byte-identically.
func TestCacheFlagServesRepeatsFromCache(t *testing.T) {
	logger := slog.New(slog.DiscardHandler)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-gen", "dblp", "-gen-nodes", "800",
			"-pool", "1", "-cache-mb", "8", "-access-log=false",
		}, logger, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server never became ready")
	}
	c := api.NewClient("http://" + addr)
	first, err := c.Query(context.Background(), "dynamic", 5, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Query(context.Background(), "dynamic", 5, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Entries) != len(second.Entries) {
		t.Fatalf("cached repeat diverged: %v vs %v", first.Entries, second.Entries)
	}
	for i := range first.Entries {
		if first.Entries[i] != second.Entries[i] {
			t.Fatalf("cached repeat diverged at %d: %v vs %v", i, first.Entries, second.Entries)
		}
	}
	hits, _ := metric(t, "http://"+addr, "rkranks_cache_hits_total")
	misses, _ := metric(t, "http://"+addr, "rkranks_cache_misses_total")
	if hits != 1 || misses != 1 {
		t.Errorf("cache counters = %v hits, %v misses, want one miss then one hit", hits, misses)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}

// metric reads one series (name and labels, as printed) from base's
// /metrics; ok is false when the series is absent.
func metric(t *testing.T, base, series string) (v float64, ok bool) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if val, found := strings.CutPrefix(sc.Text(), series+" "); found {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v, true
		}
	}
	return 0, false
}

// TestClusterServeAndSigtermDrain boots the real binary path (run) with a
// 2-shard in-process cluster, exercises the serving surface, and asserts
// the SIGTERM drain contract.
func TestClusterServeAndSigtermDrain(t *testing.T) {
	topo := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(topo, []byte(`{"partitioner":"degree","local":{"shards":2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.DiscardHandler)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-gen", "dblp", "-gen-nodes", "1500",
			"-topology", topo, "-pool", "1", "-access-log=false",
		}, logger, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("cluster exited early: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("cluster never became ready")
	}
	c := api.NewClient("http://" + addr)

	doc, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("healthz: %v (%v)", err, doc)
	}
	if doc["shards"] != float64(2) {
		t.Errorf("healthz shards = %v, want 2", doc["shards"])
	}

	resp, err := c.Query(context.Background(), "dynamic", 7, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) != 10 || resp.Partial {
		t.Errorf("query response: %+v", resp)
	}
	batch, err := c.Batch(context.Background(), "dynamic", []int32{1, 2, 3}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 {
		t.Errorf("batch returned %d results", len(batch.Results))
	}

	// One call per shard for the query and one for the batch.
	for _, shard := range []string{"0", "1"} {
		if v, ok := metric(t, "http://"+addr, `rkranks_cluster_shard_calls_total{shard="`+shard+`"}`); v != 2 {
			t.Errorf("shard %s calls = %v (series present %v), want 2", shard, v, ok)
		}
	}
	resp404, err := http.Get("http://" + addr + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("GET /statsz: status %d, want 404", resp404.StatusCode)
	}

	// SIGTERM: run must drain and return nil.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cluster never drained after SIGTERM")
	}
}

// TestRemoteTopologyMatchesSingleNode fronts two shard servers, built as
// `rkserve -shard i/2` builds them, with a coordinator: its answers are
// byte-identical to one engine's, each query calls each shard once, and
// the same URLs in swapped order fail the boot.
func TestRemoteTopologyMatchesSingleNode(t *testing.T) {
	const nodes = 800
	g, err := gen.Named("dblp", nodes, 1) // -gen dblp -gen-nodes 800 with the default -gen-seed
	if err != nil {
		t.Fatal(err)
	}
	var urls [2]string
	for i := range urls {
		urls[i] = shardServer(t, g, i, len(urls))
	}
	swapped := writeTopology(t, fmt.Sprintf(`{"shards": [{"replicas": [%q]}, {"replicas": [%q]}]}`, urls[1], urls[0]))
	args := []string{"-addr", "127.0.0.1:0", "-gen", "dblp", "-gen-nodes", strconv.Itoa(nodes), "-access-log=false", "-topology"}
	if err := run(append(args, swapped), slog.New(slog.DiscardHandler), nil); err == nil ||
		!strings.Contains(err.Error(), "shard") {
		t.Fatalf("swapped shard URLs: err = %v, want a shard ownership refusal", err)
	}

	base, done := boot(t, append(args, writeTopology(t, fmt.Sprintf(`{"shards": [{"replicas": [%q]}, {"replicas": [%q]}]}`, urls[0], urls[1]))))
	c := api.NewClient(base)
	single := core.NewEngine(g, core.Options{})
	calls := func() (sum [2]float64) {
		for i := range sum {
			sum[i], _ = metric(t, base, fmt.Sprintf(`rkranks_cluster_shard_calls_total{shard="%d"}`, i))
		}
		return sum
	}
	for _, q := range []int32{0, 42, 311, nodes - 1} {
		for _, k := range []int{1, 5, 10} {
			before := calls()
			got, err := c.Query(context.Background(), "dynamic", q, k, 0)
			if err != nil {
				t.Fatalf("q=%d k=%d: %v", q, k, err)
			}
			want, err := single.Query(core.Dynamic, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !sameEntries(got.Entries, want) || got.Partial {
				t.Errorf("q=%d k=%d: coordinator %+v, one engine %v", q, k, got, want.Entries)
			}
			if after := calls(); after[0] != before[0]+1 || after[1] != before[1]+1 {
				t.Errorf("q=%d k=%d: shard calls %v -> %v, want one per shard", q, k, before, after)
			}
		}
	}
	stop(t, done)
}

// TestLocalLiveTopologyLabelsAndMetrics: in-process live shards take the
// -hub-count labeling and count their mutations into the process's
// /metrics, as `rkserve -live` does.
func TestLocalLiveTopologyLabelsAndMetrics(t *testing.T) {
	base, done := boot(t, []string{
		"-addr", "127.0.0.1:0", "-gen", "dblp", "-gen-nodes", "600",
		"-topology", writeTopology(t, `{"local": {"shards": 2}}`),
		"-live", "-hub-count", "50", "-pool", "1", "-access-log=false",
	})
	c := api.NewClient(base)
	doc, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if doc["hub_labeled"] != true || doc["shards"] != float64(2) || doc["mutable"] != true {
		t.Errorf("healthz = %v, want hub_labeled, 2 shards, mutable", doc)
	}
	for _, q := range []int32{3, 42, 377} {
		dyn, err := c.Query(context.Background(), "dynamic", q, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		hl, err := c.Query(context.Background(), "hublabel", q, 10, 0)
		if err != nil {
			t.Fatalf("hublabel q=%d: %v", q, err)
		}
		if fmt.Sprint(hl.Entries) != fmt.Sprint(dyn.Entries) {
			t.Errorf("q=%d: hublabel %v, dynamic %v", q, hl.Entries, dyn.Entries)
		}
	}
	if v, _ := metric(t, base, "rkranks_mutation_batches_total"); v != 0 {
		t.Fatalf("mutation batches before any mutation = %v", v)
	}
	info, err := c.Mutate(context.Background(), []graph.Mutation{graph.AddVertices(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 {
		t.Errorf("generation after one batch = %d, want 2", info.Generation)
	}
	if v, _ := metric(t, base, "rkranks_mutation_batches_total"); v < 1 {
		t.Errorf("rkranks_mutation_batches_total = %v after an applied batch", v)
	}
	stop(t, done)
}

// shardServer serves vertex shard i of P over HTTP exactly as
// `rkserve -shard i/P` does: a masked pool with the shard spec on /healthz.
func shardServer(t *testing.T, g *graph.Graph, i, P int) string {
	t.Helper()
	mask, err := cluster.ShardMask(g, cluster.Modulo{}, P, i, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Backend: core.NewPool(g, core.Options{Candidates: mask}, 1),
		Graph:   g,
		HealthExtra: map[string]any{
			"shard":             fmt.Sprintf("%d/%d", i, P),
			"shard_partitioner": "modulo",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// writeTopology writes doc to a fresh topology file and returns its path.
func writeTopology(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// boot runs rkserve with args until it listens, returning its base URL
// and the channel run's result arrives on.
func boot(t *testing.T, args []string) (string, <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(args, slog.New(slog.DiscardHandler), ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, done
	case err := <-done:
		t.Fatalf("rkserve exited early: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("rkserve never became ready")
	}
	return "", nil
}

// stop delivers SIGTERM and waits for run to drain and return nil.
func stop(t *testing.T, done <-chan error) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("rkserve never drained after SIGTERM")
	}
}

// sameEntries reports whether a wire answer carries exactly res's
// entries, in order.
func sameEntries(got []api.Entry, res *core.Result) bool {
	if len(got) != len(res.Entries) {
		return false
	}
	for i, e := range res.Entries {
		if got[i] != (api.Entry{Node: e.Node, Rank: e.Rank}) {
			return false
		}
	}
	return true
}
