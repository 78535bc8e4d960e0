package main

import (
	"context"
	"log/slog"
	"syscall"
	"testing"
	"time"

	"rkranks/internal/api"
)

// TestClusterServeAndSigtermDrain boots the real binary path (run) with a
// 2-shard in-process cluster, exercises the serving surface, and asserts
// the SIGTERM drain contract.
func TestClusterServeAndSigtermDrain(t *testing.T) {
	logger := slog.New(slog.DiscardHandler)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-gen", "dblp", "-gen-nodes", "1500",
			"-shards", "2", "-partitioner", "degree",
			"-pool", "1", "-access-log=false",
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

	snap, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cl, ok := snap.Cluster.(map[string]any)
	if !ok {
		t.Fatalf("statsz cluster section = %#v", snap.Cluster)
	}
	if shardsDoc, ok := cl["shards"].([]any); !ok || len(shardsDoc) != 2 {
		t.Errorf("cluster shards section = %v", cl["shards"])
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
