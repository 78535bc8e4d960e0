package main

import (
	"bufio"
	"context"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"rkranks/internal/api"
)

// TestClusterServeAndSigtermDrain boots the real binary path (run) with a
// 2-shard in-process cluster, exercises the serving surface, and asserts
// the SIGTERM drain contract.
func TestClusterServeAndSigtermDrain(t *testing.T) {
	topo := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(topo, []byte(`{"partitioner":"degree","local":{"shards":2,"pool_size":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.DiscardHandler)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-gen", "dblp", "-gen-nodes", "1500",
			"-topology", topo, "-access-log=false",
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
