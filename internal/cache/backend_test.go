package cache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/hub"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
	tg "rkranks/internal/testgraphs"
	"rkranks/internal/workload"
)

var allAlgorithms = []core.Algorithm{core.Naive, core.Static, core.Dynamic, core.Indexed}

func entriesEqual(a, b []rank.Entry) bool {
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

// TestCachedEquivalenceAllAlgorithms: cache on and off produce
// byte-identical entries for every algorithm, and the second pass is
// served from the store.
func TestCachedEquivalenceAllAlgorithms(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 200, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 3})
	ix, err := ridx.BuildSharded(g, ridx.BuildParams{
		Hubs: hub.Select(g, hub.DegreeFirst, g.N()/8+1, hub.Options{}),
		M:    g.N()/4 + 1,
		K:    16,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := core.NewPoolWithIndex(g, core.Options{}, 2, ix)
	if err != nil {
		t.Fatal(err)
	}
	plain := core.NewPool(g, core.Options{}, 1)
	cached, err := NewBackend(pool, Config{MaxBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Random(g, 5, 11)
	for _, algo := range allAlgorithms {
		for _, q := range queries {
			for _, k := range []int{1, 3, 10} {
				want, err := plain.Query(algo, q, k)
				if algo == core.Indexed {
					want, err = pool.Query(algo, q, k)
				}
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					got, err := cached.QueryContext(context.Background(), algo, q, k)
					if err != nil {
						t.Fatalf("%v q=%d k=%d pass %d: %v", algo, q, k, pass, err)
					}
					if !entriesEqual(got.Entries, want.Entries) {
						t.Fatalf("%v q=%d k=%d pass %d diverged:\n cached %v\n direct %v",
							algo, q, k, pass, got.Entries, want.Entries)
					}
				}
			}
		}
	}
	snap := cached.Cache().Stats()
	if snap.Hits == 0 || snap.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", snap)
	}
	if snap.Hits < snap.Misses {
		t.Errorf("second passes should all hit: %+v", snap)
	}
}

// TestCoalescingAdmitsOnePermit is the permit-accounting assertion:
// many concurrent duplicates of one query occupy at most ONE pool
// engine, and exactly one inner query runs.
func TestCoalescingAdmitsOnePermit(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 400, AttachPerNode: 5, ExtraCollabFactor: 0.5, Seed: 7})
	pool := core.NewPool(g, core.Options{}, 4)
	cached, err := NewBackend(pool, Config{MaxBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]*core.Result, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cached.QueryContext(context.Background(), core.Dynamic, 42, 8)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < waiters; i++ {
		if !entriesEqual(results[i].Entries, results[0].Entries) {
			t.Fatalf("waiter %d saw a different result", i)
		}
	}
	if peak := pool.PeakOccupancy(); peak != 1 {
		t.Errorf("peak pool occupancy = %d, want 1 (duplicates must share one permit)", peak)
	}
	snap := cached.Cache().Stats()
	if snap.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 leader", snap.Misses)
	}
	if snap.Coalesced+snap.Hits != waiters-1 {
		t.Errorf("coalesced %d + hits %d != %d followers", snap.Coalesced, snap.Hits, waiters-1)
	}
}

// TestFollowerCancellationMidFlight: a follower whose context dies while
// the leader computes returns its own context error immediately; the
// leader is unaffected and completes.
func TestFollowerCancellationMidFlight(t *testing.T) {
	target := &countingTarget{calls: make(chan int32, 4), block: make(chan struct{})}
	cached, err := NewBackend(target, Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := cached.QueryContext(context.Background(), core.Dynamic, 1, 3)
		leaderDone <- err
	}()
	<-target.calls // the leader's flight is now in the target

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := cached.QueryContext(ctx, core.Dynamic, 1, 3)
		followerDone <- err
	}()
	// The follower must have joined (coalesced counter) before we cancel.
	waitFor(t, func() bool { return cached.Cache().Stats().Coalesced == 1 })
	cancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled follower still waiting on the leader's flight")
	}

	close(target.block) // let the leader finish
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after follower cancellation: %v", err)
	}
	if snap := cached.Cache().Stats(); snap.Entries != 1 {
		t.Errorf("completed flight not cached: %+v", snap)
	}
}

// TestAllWaitersGoneCancelsFlight: when the last waiter walks away the
// flight's execution context is canceled, releasing the engine permit
// early instead of computing for nobody.
func TestAllWaitersGoneCancelsFlight(t *testing.T) {
	target := &countingTarget{
		calls:   make(chan int32, 1),
		block:   make(chan struct{}),
		ctxErrs: make(chan error, 1),
	}
	cached, err := NewBackend(target, Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cached.QueryContext(ctx, core.Dynamic, 5, 3)
		done <- err
	}()
	<-target.calls
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	select {
	case err := <-target.ctxErrs:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("execution context ended with %v, want cancellation", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("execution context never canceled after every waiter left")
	}
	if snap := cached.Cache().Stats(); snap.Entries != 0 {
		t.Errorf("failed flight was cached: %+v", snap)
	}
}

// TestPartialResultsNotCached: degraded (Partial) answers serve their
// waiters but never enter the store.
func TestPartialResultsNotCached(t *testing.T) {
	target := &countingTarget{calls: make(chan int32, 4), partial: true}
	cached, err := NewBackend(target, Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := cached.QueryContext(context.Background(), core.Dynamic, 9, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial {
			t.Fatal("partial flag lost")
		}
	}
	snap := cached.Cache().Stats()
	if snap.Misses != 2 || snap.Hits != 0 || snap.Entries != 0 {
		t.Errorf("partial results must not cache: %+v", snap)
	}
}

// TestErrorsNotCached: a failed flight is retried by the next query.
func TestErrorsNotCached(t *testing.T) {
	boom := errors.New("backend down")
	target := &countingTarget{calls: make(chan int32, 4), err: boom}
	cached, err := NewBackend(target, Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cached.QueryContext(context.Background(), core.Dynamic, 3, 3); !errors.Is(err, boom) {
			t.Fatalf("error = %v, want backend error", err)
		}
	}
	if len(target.calls) != 2 {
		t.Errorf("inner calls = %d, want 2 (errors must not cache)", len(target.calls))
	}
}

// TestBatchDeduplicatesAndGroupsMisses: a batch resolves hits from the
// store, coalesces intra-batch duplicates onto one flight, and sends the
// fresh misses to the inner backend as ONE grouped call.
func TestBatchDeduplicatesAndGroupsMisses(t *testing.T) {
	var mu sync.Mutex
	var innerBatches [][]int32
	target := &recordingTarget{onBatch: func(qs []int32) {
		mu.Lock()
		innerBatches = append(innerBatches, append([]int32(nil), qs...))
		mu.Unlock()
	}}
	cached, err := NewBackend(target, Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the store with query 7.
	if _, err := cached.QueryContext(context.Background(), core.Dynamic, 7, 3); err != nil {
		t.Fatal(err)
	}

	batch := []int32{7, 1, 2, 1, 7, 2, 3}
	results, err := cached.QueryManyContext(context.Background(), core.Dynamic, batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range batch {
		if results[i] == nil || results[i].Query != q {
			t.Fatalf("results[%d] = %+v, want query %d", i, results[i], q)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(innerBatches) != 1 {
		t.Fatalf("inner batch calls = %d, want 1 grouped call", len(innerBatches))
	}
	if want := []int32{1, 2, 3}; !int32sEqual(innerBatches[0], want) {
		t.Errorf("inner batch = %v, want unique misses %v", innerBatches[0], want)
	}
	snap := cached.Cache().Stats()
	if snap.Hits != 2 { // 7 twice
		t.Errorf("hits = %d, want 2", snap.Hits)
	}
	if snap.Coalesced != 2 { // second 1 and second 2
		t.Errorf("coalesced = %d, want 2", snap.Coalesced)
	}
}

// TestGenerationBumpInvalidates: bumping the shared index generation
// orphans every cached answer; the next query recomputes.
func TestGenerationBumpInvalidates(t *testing.T) {
	g := tg.Toy()
	ix, err := ridx.BuildSharded(g, ridx.BuildParams{Hubs: []int32{0}, M: 3, K: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := core.NewPoolWithIndex(g, core.Options{}, 1, ix)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewBackend(pool, Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	first, err := cached.QueryContext(context.Background(), core.Indexed, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cached.QueryContext(context.Background(), core.Indexed, 0, 3); err != nil {
		t.Fatal(err)
	}
	if snap := cached.Cache().Stats(); snap.Hits != 1 {
		t.Fatalf("warm lookup missed: %+v", snap)
	}

	ix.BumpGeneration()
	res, err := cached.QueryContext(context.Background(), core.Indexed, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap := cached.Cache().Stats()
	if snap.Misses != 2 {
		t.Errorf("post-bump lookup served stale generation: %+v", snap)
	}
	if !entriesEqual(res.Entries, first.Entries) {
		t.Errorf("recomputed entries diverged (canonical results are generation-independent): %v vs %v", res.Entries, first.Entries)
	}
}

// recordingTarget answers instantly and reports batch compositions.
type recordingTarget struct {
	onBatch func([]int32)
}

func (r *recordingTarget) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	return &core.Result{Query: q, K: k, Entries: []rank.Entry{{Node: q + 1, Rank: 1}}}, nil
}

func (r *recordingTarget) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	if r.onBatch != nil {
		r.onBatch(queries)
	}
	out := make([]*core.Result, len(queries))
	for i, q := range queries {
		out[i], _ = r.QueryContext(ctx, a, q, k)
	}
	return out, nil
}

func (r *recordingTarget) Size() int     { return 2 }
func (r *recordingTarget) Indexed() bool { return false }

func int32sEqual(a, b []int32) bool {
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

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

// staleFlightTarget blocks its first call until canceled, then holds the
// error back until released — pinning a flight in the window between
// group cancellation and registry removal. Later calls succeed.
type staleFlightTarget struct {
	mu       sync.Mutex
	calls    int
	canceled chan struct{}
	release  chan struct{}
}

func (s *staleFlightTarget) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	s.mu.Lock()
	s.calls++
	first := s.calls == 1
	s.mu.Unlock()
	if first {
		<-ctx.Done()
		close(s.canceled)
		<-s.release
		return nil, ctx.Err()
	}
	return &core.Result{Query: q, K: k, Entries: []rank.Entry{{Node: q + 1, Rank: 1}}}, nil
}

func (s *staleFlightTarget) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	out := make([]*core.Result, len(queries))
	for i, q := range queries {
		res, err := s.QueryContext(ctx, a, q, k)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

func (s *staleFlightTarget) Size() int     { return 2 }
func (s *staleFlightTarget) Indexed() bool { return false }

// TestJoiningAbandonedFlightRetries: a request that joins a flight whose
// every earlier waiter already left (group canceled, not yet removed
// from the registry) must not surface the stranger's cancellation — it
// retries and succeeds.
func TestJoiningAbandonedFlightRetries(t *testing.T) {
	target := &staleFlightTarget{canceled: make(chan struct{}), release: make(chan struct{})}
	cached, err := NewBackend(target, Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := cached.QueryContext(ctx, core.Dynamic, 4, 3)
		leaderDone <- err
	}()
	// Abandon the flight: the leader leaves, the group cancels, but the
	// target holds the flight un-finished until release.
	cancel()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v", err)
	}
	<-target.canceled

	joinerDone := make(chan error, 1)
	var joinerRes *core.Result
	go func() {
		res, err := cached.QueryContext(context.Background(), core.Dynamic, 4, 3)
		joinerRes = res
		joinerDone <- err
	}()
	// The joiner must be on the dying flight before it completes.
	waitFor(t, func() bool { return cached.Cache().Stats().Coalesced == 1 })
	close(target.release)
	select {
	case err := <-joinerDone:
		if err != nil {
			t.Fatalf("joiner surfaced the abandoned flight's cancellation: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("joiner never completed")
	}
	if joinerRes == nil || len(joinerRes.Entries) != 1 {
		t.Fatalf("joiner result = %+v", joinerRes)
	}
}
