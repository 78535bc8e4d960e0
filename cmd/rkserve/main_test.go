package main

import (
	"context"
	"log/slog"
	"sync"
	"syscall"
	"testing"
	"time"

	"rkranks/internal/api"
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
		snap, err := c.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if snap.InFlight >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow queries never in flight: %+v", snap)
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

// TestFlagValidation covers the mutually exclusive / missing flag paths.
func TestFlagValidation(t *testing.T) {
	logger := slog.New(slog.DiscardHandler)
	cases := [][]string{
		{},                                // no graph source
		{"-graph", "a", "-gen", "dblp"},   // both sources
		{"-gen", "nope"},                  // unknown generator
		{"-gen", "dblp", "-shard", "2"},   // malformed shard spec
		{"-gen", "dblp", "-shard", "4/4"}, // shard index out of range
		{"-gen", "dblp", "-shard", "0/2", "-shard-partitioner", "nope"}, // unknown partitioner
	}
	for _, args := range cases {
		if err := run(args, logger, nil); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestShardFlagMasksCandidates boots rkserve as shard 1 of 2 (modulo) and
// checks it only ever answers with its own vertices — the contract a
// rkcluster coordinator depends on.
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
// asserts a repeated query hits the response cache (the /statsz cache
// section moves) while answering byte-identically.
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
	snap, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	doc, ok := snap.Cache.(map[string]any)
	if !ok {
		t.Fatalf("statsz has no cache section: %#v", snap.Cache)
	}
	if doc["hits"] != float64(1) || doc["misses"] != float64(1) {
		t.Errorf("cache counters = %v, want one miss then one hit", doc)
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
