package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"rkranks/internal/api"
	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/obs"
	"rkranks/internal/ridx"
	"rkranks/internal/server"
)

// bootIndexLeader serves a pool whose shared index is wrapped in
// ridx.Replicated — the configuration `rkserve -build-index` runs —
// over real HTTP, and returns the wrapper for driving refinement.
func bootIndexLeader(t *testing.T, logCap int) (*ridx.Replicated, *httptest.Server) {
	t.Helper()
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 200, AttachPerNode: 4, Seed: 21})
	sh, err := ridx.BuildSharded(g, ridx.BuildParams{Hubs: []int32{0, 1, 2, 3}, M: 40, K: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	repl := ridx.NewReplicated(sh, logCap)
	pool, err := core.NewPoolWithIndex(g, core.Options{}, 2, repl)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Pool: pool, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return repl, ts
}

func indexStatesEqual(t *testing.T, got, want ridx.Index) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N: %d vs %d", got.N(), want.N())
	}
	for u := int32(0); u < int32(want.N()); u++ {
		if g, w := got.Check(u), want.Check(u); g != w {
			t.Fatalf("Check(%d) = %d, want %d", u, g, w)
		}
	}
	for v := int32(0); v < int32(want.N()); v++ {
		g, w := got.Reverse(v, nil), want.Reverse(v, nil)
		if len(g) != len(w) {
			t.Fatalf("Reverse(%d): %v vs %v", v, g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("Reverse(%d)[%d]: %v vs %v", v, i, g[i], w[i])
			}
		}
	}
}

// teach drives n exact facts into an index the way refinement would.
func teach(ix ridx.Index, n int, salt int32) {
	nodes := int32(ix.N())
	for i := int32(0); i < int32(n); i++ {
		v := (i*13 + salt) % nodes
		u := (i*7 + salt + 1) % nodes
		ix.Offer(v, u, (i+salt)%40+1)
		if i%6 == 0 {
			ix.RaiseCheck(u, (i+salt)%15+1)
		}
	}
}

// TestIndexFollowerEndToEnd: a cold replica bootstraps from a leader's
// HTTP snapshot, follows deltas incrementally, and falls back to a full
// re-sync when the leader invalidates (generation change) — converging
// on the leader's exact dictionary state at every step.
func TestIndexFollowerEndToEnd(t *testing.T) {
	leader, ts := bootIndexLeader(t, 0)
	teach(leader, 150, 0)

	ctx := context.Background()
	client := api.NewClient(ts.URL)
	om := obs.NewMetrics(nil)

	repl, seq, gn, err := BootstrapIndex(ctx, client, 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq != leader.Seq() || gn != leader.Generation() {
		t.Fatalf("bootstrap cursor/gen = %d/%d, want %d/%d", seq, gn, leader.Seq(), leader.Generation())
	}
	indexStatesEqual(t, repl, leader)

	// Incremental: the leader keeps learning; one sync converges.
	teach(leader, 80, 1000)
	f := NewIndexFollower(repl, client, seq, gn, IndexFollowerConfig{Metrics: om})
	applied, err := f.SyncOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("sync applied no deltas though the leader learned 80 facts")
	}
	indexStatesEqual(t, repl, leader)
	if om.IndexDeltasApplied.Value() != int64(applied) {
		t.Errorf("deltas applied counter = %d, want %d", om.IndexDeltasApplied.Value(), applied)
	}
	if f.Cursor() != leader.Seq() {
		t.Errorf("cursor = %d, want leader seq %d", f.Cursor(), leader.Seq())
	}

	// Idempotent when caught up.
	if n, err := f.SyncOnce(ctx); err != nil || n != 0 {
		t.Fatalf("caught-up sync: applied %d err %v", n, err)
	}

	// Leader invalidates (e.g. a mutation epoch): generation changes, log
	// resets. The follower must fall back to a snapshot re-sync, not
	// keep stale pre-invalidation answers.
	leader.Invalidate()
	teach(leader, 40, 5000)
	if _, err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	indexStatesEqual(t, repl, leader)
	if repl.Generation() != leader.Generation() {
		t.Errorf("follower generation = %d, want %d", repl.Generation(), leader.Generation())
	}
	if om.IndexSnapshotsLoaded.Value() < 1 {
		t.Error("generation change did not trigger a snapshot re-sync")
	}
}

// TestIndexFollowerRejectsOtherGraph: a leader serving a larger graph
// (say, restarted on another file) sends deltas and snapshots naming
// nodes the follower does not have. Each sync fails with ridx.ErrFormat
// and leaves the follower's index, generation and cursor as they were, so
// it keeps serving and retries. Unchecked, both paths panicked.
func TestIndexFollowerRejectsOtherGraph(t *testing.T) {
	leader, ts := bootIndexLeader(t, 0)
	ctx := context.Background()
	client := api.NewClient(ts.URL)
	repl := ridx.NewReplicated(ridx.NewSharded(100, 50), 0)
	teach(repl, 60, 7)
	var before bytes.Buffer
	if err := repl.Write(&before); err != nil {
		t.Fatal(err)
	}
	gen := repl.Generation()
	for name, f := range map[string]*IndexFollower{
		"deltas":   NewIndexFollower(repl, client, leader.Seq(), leader.Generation(), IndexFollowerConfig{}),
		"snapshot": NewIndexFollower(repl, client, 0, leader.Generation()+1, IndexFollowerConfig{}),
	} {
		cursor := f.Cursor()
		leader.Offer(150, 199, 1) // a fact only the leader's graph can hold
		if _, err := f.SyncOnce(ctx); !errors.Is(err, ridx.ErrFormat) {
			t.Fatalf("%s: SyncOnce = %v, want ridx.ErrFormat", name, err)
		}
		var after bytes.Buffer
		if err := repl.Write(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) || repl.Generation() != gen || f.Cursor() != cursor {
			t.Fatalf("%s: a rejected sync changed the follower", name)
		}
	}
}

// TestIndexFollowerLeaderBehindKeepsLocalFacts: a leader that comes
// back with a LOWER index generation than the follower's (a restart
// legitimately restarts the generation) must not make the follower
// discard its local facts — the local index is at least as fresh, and
// its generation can never be lowered to match (RaiseGeneration is
// monotonic), so the old Invalidate-on-any-difference behavior threw
// away the fresher state and churned full re-syncs (regression). The
// older snapshot merges in and polling resumes cleanly.
func TestIndexFollowerLeaderBehindKeepsLocalFacts(t *testing.T) {
	leaderA, tsA := bootIndexLeader(t, 0)
	teach(leaderA, 60, 0)
	ctx := context.Background()
	om := obs.NewMetrics(nil)

	repl, cursor, gn, err := BootstrapIndex(ctx, api.NewClient(tsA.URL), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The follower's answer set moves past any leader's: two local
	// invalidation epochs, then freshly learned local facts.
	repl.BumpGeneration()
	repl.BumpGeneration()
	teach(repl, 50, 9000)
	localGen := repl.Generation()
	n := int32(repl.N())
	prevCheck := make([]int32, n)
	for u := int32(0); u < n; u++ {
		prevCheck[u] = repl.Check(u)
	}

	// "Restarted" leader: fresh index, one invalidation epoch — its
	// generation (1) is nonzero but BELOW the follower's.
	leaderB, tsB := bootIndexLeader(t, 0)
	leaderB.Invalidate()
	teach(leaderB, 40, 500)
	if leaderB.Generation() >= localGen {
		t.Fatalf("leader generation %d not below follower's %d; test setup broken", leaderB.Generation(), localGen)
	}

	f := NewIndexFollower(repl, api.NewClient(tsB.URL), cursor, gn, IndexFollowerConfig{Metrics: om})
	if _, err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if om.IndexSnapshotsLoaded.Value() != 1 {
		t.Fatalf("snapshots loaded = %d, want exactly 1", om.IndexSnapshotsLoaded.Value())
	}
	// Local facts survived the merge: check bounds are monotone, so any
	// bound that dropped means the follower was invalidated.
	for u := int32(0); u < n; u++ {
		if repl.Check(u) < prevCheck[u] {
			t.Fatalf("Check(%d) dropped %d -> %d: local facts were discarded for an older leader", u, prevCheck[u], repl.Check(u))
		}
	}
	if repl.Generation() != localGen {
		t.Errorf("follower generation %d changed to %d despite being ahead of the leader", localGen, repl.Generation())
	}

	// Steady state: no repeated snapshot churn once the leader generation
	// is recorded.
	if applied, err := f.SyncOnce(ctx); err != nil || applied != 0 {
		t.Fatalf("second sync: applied %d err %v, want idle", applied, err)
	}
	if om.IndexSnapshotsLoaded.Value() != 1 {
		t.Errorf("snapshots loaded = %d after steady-state poll, want still 1 (re-sync churn)", om.IndexSnapshotsLoaded.Value())
	}
}

// TestIndexFollowerTruncationResync: a follower that fell further behind
// than the leader's bounded delta log recovers through the snapshot
// path and still converges.
func TestIndexFollowerTruncationResync(t *testing.T) {
	leader, ts := bootIndexLeader(t, 16)
	teach(leader, 30, 0)

	ctx := context.Background()
	client := api.NewClient(ts.URL)
	om := obs.NewMetrics(nil)
	repl, seq, gn, err := BootstrapIndex(ctx, client, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewIndexFollower(repl, client, seq, gn, IndexFollowerConfig{Metrics: om})

	// Far more new deltas than the cap-16 log retains.
	teach(leader, 200, 3000)
	if _, err := f.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	indexStatesEqual(t, repl, leader)
	if om.IndexSnapshotsLoaded.Value() < 1 {
		t.Error("log truncation did not trigger a snapshot re-sync")
	}
}
