package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/cache"
	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/live"
	"rkranks/internal/obs"
	"rkranks/internal/server"
	tg "rkranks/internal/testgraphs"
	"rkranks/internal/workload"
)

// flakyReplica wraps one replica with switchable query and mutation
// failures (atomics: the switches flip while the group races).
type flakyReplica struct {
	ShardBackend
	failQuery  atomic.Bool
	failMutate atomic.Bool
}

func (f *flakyReplica) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	if f.failQuery.Load() {
		return nil, errors.New("injected replica failure")
	}
	return f.ShardBackend.QueryContext(ctx, a, q, k)
}

func (f *flakyReplica) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	if f.failQuery.Load() {
		return nil, errors.New("injected replica failure")
	}
	return f.ShardBackend.QueryManyContext(ctx, a, queries, k)
}

func (f *flakyReplica) Mutate(ctx context.Context, ms []graph.Mutation) (live.MutateInfo, error) {
	if f.failMutate.Load() {
		return live.MutateInfo{}, errors.New("injected mutate failure")
	}
	return f.ShardBackend.(shardMutator).Mutate(ctx, ms)
}

func (f *flakyReplica) Generation() uint64 {
	if gp, ok := f.ShardBackend.(interface{ Generation() uint64 }); ok {
		return gp.Generation()
	}
	return 0
}

// replicatedCoordinator hand-builds a shards x 2 coordinator with
// replica 0 of every group wrapped in a flakyReplica, so tests can kill
// exactly one replica per group.
func replicatedCoordinator(t *testing.T, g *graph.Graph, shards int, liveMode bool, cfg Config) (*Coordinator, []*flakyReplica, []*ReplicaGroup) {
	t.Helper()
	var flakies []*flakyReplica
	var groups []*ReplicaGroup
	backends := make([]ShardBackend, shards)
	for i := 0; i < shards; i++ {
		members := make([]ShardBackend, 2)
		for r := 0; r < 2; r++ {
			var b ShardBackend
			var err error
			if liveMode {
				b, err = liveStore(g, live.Config{PoolSize: 1}, Modulo{}, shards, i)
			} else {
				b, err = localPool(g, core.Options{}, Modulo{}, shards, i, 1, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			if r == 0 {
				fr := &flakyReplica{ShardBackend: b}
				flakies = append(flakies, fr)
				b = fr
			}
			members[r] = b
		}
		rg, err := NewReplicaGroup(members, cfg)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, rg)
		backends[i] = rg
	}
	coord, err := New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return coord, flakies, groups
}

// TestReplicaFailoverByteIdentity is the tentpole acceptance test: a
// 2-shard x 2-replica cluster answers byte-identically to a single-node
// pool — and never Partial — while one replica of EVERY group is down,
// while it recovers, and while the kill switch flips concurrently with
// a running batch (-race target).
func TestReplicaFailoverByteIdentity(t *testing.T) {
	g := tieHeavy(33, false, 80)
	om := obs.NewMetrics(nil)
	cfg := Config{Metrics: om, FailureThreshold: 1, RetryBackoff: time.Millisecond}
	coord, flakies, groups := replicatedCoordinator(t, g, 2, false, cfg)
	defer coord.Close()
	single := core.NewPool(g, core.Options{}, 2)
	queries := workload.Random(g, 24, 7)

	check := func(phase string) {
		t.Helper()
		results, err := coord.QueryMany(core.Dynamic, queries, 8)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		for i, q := range queries {
			want, err := single.Query(core.Dynamic, q, 8)
			if err != nil {
				t.Fatal(err)
			}
			if results[i].Partial {
				t.Fatalf("%s: q=%d flagged Partial despite a healthy sibling", phase, q)
			}
			if !entriesEqual(results[i].Entries, want.Entries) {
				t.Fatalf("%s: q=%d diverged:\n group  %v\n single %v", phase, q, results[i].Entries, want.Entries)
			}
		}
	}

	check("all replicas up")
	for _, f := range flakies {
		f.failQuery.Store(true)
	}
	check("one replica per group down")
	if om.ReplicaFailovers.Value() == 0 {
		t.Error("no failover was counted while a replica per group was down")
	}
	for _, f := range flakies {
		f.failQuery.Store(false)
	}
	time.Sleep(2 * time.Millisecond) // let the 1ms probe backoff expire
	check("replicas recovered")

	// Kill switch flipping mid-batch, racing the scatter.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, f := range flakies {
				f.failQuery.Store(true)
			}
			time.Sleep(500 * time.Microsecond)
			for _, f := range flakies {
				f.failQuery.Store(false)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	for round := 0; round < 5; round++ {
		check("mid-batch kill")
	}
	close(done)

	for i, rg := range groups {
		if n := rg.InRotation(); n == 0 {
			t.Errorf("group %d has no replica in rotation after recovery", i)
		}
	}
}

// TestReplicaGroupServingGeneration is the stale-replica cache-poisoning
// regression: while one replica lags behind by missed mutation batches,
// the group's Generation() — the response cache's key — must equal the
// SERVING replica's generation, every answer must be stamped with
// exactly that generation, and the lagging replica must stay out of
// rotation until catch-up replays what it missed.
func TestReplicaGroupServingGeneration(t *testing.T) {
	g := tg.Path(30)
	om := obs.NewMetrics(nil)
	cfg := Config{Metrics: om}
	ctx := context.Background()

	healthy, err := liveStore(g, live.Config{PoolSize: 1}, Modulo{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lagBase, err := liveStore(g, live.Config{PoolSize: 1}, Modulo{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lag := &flakyReplica{ShardBackend: lagBase}
	rg, err := NewReplicaGroup([]ShardBackend{healthy, lag}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := rg.Generation()
	if rg.InRotation() != 2 {
		t.Fatalf("fresh group rotation = %d, want 2", rg.InRotation())
	}

	// Two batches land while the lagging replica refuses mutations.
	lag.failMutate.Store(true)
	for i, w := range []float64{2.5, 3.5} {
		info, err := rg.Mutate(ctx, []graph.Mutation{graph.SetWeight(0, 1, w)})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if info.Generation != base+uint64(i)+1 {
			t.Fatalf("batch %d advanced to generation %d, want %d", i, info.Generation, base+uint64(i)+1)
		}
	}
	serving := base + 2

	if got := rg.Generation(); got != serving {
		t.Fatalf("group generation = %d, want serving replica's %d", got, serving)
	}
	if rg.InRotation() != 1 {
		t.Fatalf("rotation = %d, want 1 (lagging replica excluded)", rg.InRotation())
	}
	// Every answer the group produces must carry the generation the
	// cache would key it under — a stale replica serving old answers
	// under the new key is exactly the poisoning this guards against.
	for q := int32(0); q < 6; q++ {
		res, err := rg.QueryContext(ctx, core.Dynamic, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Generation != rg.Generation() {
			t.Fatalf("q=%d served generation %d under cache key generation %d", q, res.Generation, rg.Generation())
		}
	}
	if lag.Generation() != base {
		t.Fatalf("lagging replica advanced to %d without catch-up", lag.Generation())
	}

	// Heal the replica: the next queries replay both missed batches (in
	// order, from the group's log) before it serves again.
	lag.failMutate.Store(false)
	for q := int32(0); q < 6 && rg.InRotation() < 2; q++ {
		if _, err := rg.QueryContext(ctx, core.Dynamic, q, 4); err != nil {
			t.Fatal(err)
		}
	}
	if rg.InRotation() != 2 {
		t.Fatalf("rotation = %d after heal, want 2", rg.InRotation())
	}
	if lag.Generation() != serving {
		t.Fatalf("caught-up replica at generation %d, want %d", lag.Generation(), serving)
	}
	if om.ReplicaCatchups.Value() == 0 {
		t.Error("catch-up was not counted")
	}
}

// TestLiveReplicatedByteIdentity drives a 2x2 LIVE cluster through
// mutation batches and queries in lockstep with a single-node live
// store, killing one replica per group for the middle batches: answers
// must stay byte-identical and non-Partial throughout, and the revived
// replicas must catch up (replaying missed batches) before rejoining.
func TestLiveReplicatedByteIdentity(t *testing.T) {
	g := tg.Path(40)
	om := obs.NewMetrics(nil)
	cfg := Config{Metrics: om}
	ctx := context.Background()
	coord, flakies, groups := replicatedCoordinator(t, g, 2, true, cfg)
	defer coord.Close()
	single, err := live.NewStore(g, live.Config{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Random(g, 8, 11)

	check := func(round int) {
		t.Helper()
		for _, q := range queries {
			want, err := single.QueryContext(ctx, core.Dynamic, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.Query(core.Dynamic, q, 5)
			if err != nil {
				t.Fatalf("round %d q=%d: %v", round, q, err)
			}
			if got.Partial {
				t.Fatalf("round %d q=%d: Partial with healthy siblings", round, q)
			}
			if !entriesEqual(got.Entries, want.Entries) {
				t.Fatalf("round %d q=%d diverged:\n cluster %v\n single  %v", round, q, got.Entries, want.Entries)
			}
		}
	}

	for round := 0; round < 6; round++ {
		// Rounds 2-3 run with one replica per group refusing everything.
		if round == 2 {
			for _, f := range flakies {
				f.failQuery.Store(true)
				f.failMutate.Store(true)
			}
		}
		if round == 4 {
			for _, f := range flakies {
				f.failQuery.Store(false)
				f.failMutate.Store(false)
			}
		}
		batch := []graph.Mutation{graph.SetWeight(int32(round), int32(round)+1, float64(round)+2)}
		wantInfo, err := single.Mutate(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		gotInfo, err := coord.Mutate(ctx, batch)
		if err != nil {
			t.Fatalf("round %d mutate: %v", round, err)
		}
		if gotInfo.Generation != wantInfo.Generation {
			t.Fatalf("round %d generation %d, want %d", round, gotInfo.Generation, wantInfo.Generation)
		}
		check(round)
	}

	// Post-heal queries must have driven catch-up on both groups.
	for i, rg := range groups {
		for q := int32(0); q < 8 && rg.InRotation() < 2; q++ {
			if _, err := rg.QueryContext(ctx, core.Dynamic, q, 4); err != nil {
				t.Fatal(err)
			}
		}
		if rg.InRotation() != 2 {
			t.Errorf("group %d rotation = %d after heal, want 2", i, rg.InRotation())
		}
	}
	if om.ReplicaCatchups.Value() == 0 {
		t.Error("no catch-up was counted for the revived replicas")
	}
	check(99)
}

// TestReplicaGroupAllTrippedRecovery: when EVERY replica is tripped the
// serving generation must fall back to the replicas' actual generations
// instead of 0 — otherwise every half-open probe sees a generation
// mismatch, is released without issuing a call (so record(true) never
// runs), and the group stays down forever even after the replicas
// recover (regression).
func TestReplicaGroupAllTrippedRecovery(t *testing.T) {
	g := tg.Path(20)
	cfg := Config{FailureThreshold: 1, RetryBackoff: time.Millisecond}
	ctx := context.Background()
	var flakies []*flakyReplica
	members := make([]ShardBackend, 2)
	for r := range members {
		b, err := liveStore(g, live.Config{PoolSize: 1}, Modulo{}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		fr := &flakyReplica{ShardBackend: b}
		flakies = append(flakies, fr)
		members[r] = fr
	}
	rg, err := NewReplicaGroup(members, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range flakies {
		f.failQuery.Store(true)
	}
	// One query attempts (and trips) every replica: threshold 1.
	if _, err := rg.QueryContext(ctx, core.Dynamic, 0, 3); err == nil {
		t.Fatal("query succeeded with every replica failing")
	}
	// The all-tripped group must keep reporting the replicas' real
	// generation (live stores start at 1), or recovery probes can never
	// match the target.
	if gen := rg.Generation(); gen == 0 {
		t.Fatal("all-tripped group reports generation 0; probes can never match it")
	}

	for _, f := range flakies {
		f.failQuery.Store(false)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := rg.QueryContext(ctx, core.Dynamic, 0, 3); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("group never recovered after every replica healed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaGroupRegressedGenerationMutate: when the sole replica
// holding the newest batches trips, the serving generation regresses.
// Mutations must then be REFUSED (minting the next generation number
// again would collide with an already-logged batch of different
// content), the tripped up-to-date replica's probe must still execute
// real calls (it is ahead of the regressed target, not stale), and once
// the group re-converges mutations resume with every logged generation
// unique.
func TestReplicaGroupRegressedGenerationMutate(t *testing.T) {
	g := tg.Path(30)
	om := obs.NewMetrics(nil)
	// Threshold 3: the lagging replica collects mutate-failure penalties
	// (one per directly-fanned batch) and must stay HEALTHY-but-lagging,
	// while query failures trip the up-to-date replica.
	cfg := Config{Metrics: om, FailureThreshold: 3, RetryBackoff: time.Millisecond}
	ctx := context.Background()
	mk := func() *flakyReplica {
		t.Helper()
		b, err := liveStore(g, live.Config{PoolSize: 1}, Modulo{}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return &flakyReplica{ShardBackend: b}
	}
	up, lag := mk(), mk()
	rg, err := NewReplicaGroup([]ShardBackend{up, lag}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Two batches land on the up-to-date replica only.
	lag.failMutate.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := rg.Mutate(ctx, []graph.Mutation{graph.SetWeight(0, 1, float64(i)+2)}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if up.Generation() != 3 || lag.Generation() != 1 {
		t.Fatalf("generations up=%d lag=%d, want 3/1", up.Generation(), lag.Generation())
	}

	// Trip the up-to-date replica (three consecutive failures): the
	// lagging sibling cannot catch up (it still refuses replay), so every
	// query fails, and the serving generation regresses to the sibling's.
	up.failQuery.Store(true)
	for i := 0; i < 3; i++ {
		if _, err := rg.QueryContext(ctx, core.Dynamic, 0, 3); err == nil {
			t.Fatal("query succeeded though the up-to-date replica fails and the sibling cannot catch up")
		}
	}
	if got := rg.Generation(); got != 1 {
		t.Fatalf("regressed serving generation = %d, want 1", got)
	}

	// The regressed group must refuse mutations: the lagging replica
	// still refuses catch-up replay, and generation 2 is already logged.
	var gre *GroupRegressedError
	if _, err := rg.Mutate(ctx, []graph.Mutation{graph.SetWeight(1, 2, 9)}); !errors.As(err, &gre) {
		t.Fatalf("mutation on regressed group: err = %v, want GroupRegressedError", err)
	}

	// The tripped replica sits AHEAD of the regressed target; its probe
	// must still issue real calls so it can recover — not be skipped on
	// the generation mismatch forever.
	up.failQuery.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for rg.Generation() != 3 {
		if _, err := rg.QueryContext(ctx, core.Dynamic, 0, 3); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("tripped up-to-date replica never recovered; serving generation stuck below its own")
		}
		time.Sleep(time.Millisecond)
	}

	// Once replay is accepted again, the next mutation first catches the
	// lagging replica up from the batch log, then applies everywhere.
	lag.failMutate.Store(false)
	info, err := rg.Mutate(ctx, []graph.Mutation{graph.SetWeight(1, 2, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 4 {
		t.Fatalf("post-recovery batch advanced to generation %d, want 4", info.Generation)
	}
	if up.Generation() != 4 || lag.Generation() != 4 {
		t.Fatalf("generations up=%d lag=%d after recovery, want 4/4", up.Generation(), lag.Generation())
	}
	if om.ReplicaCatchups.Value() == 0 {
		t.Error("catch-up replay was not counted")
	}

	// The collision this all guards against: every logged generation
	// holds exactly one batch.
	rg.muMu.Lock()
	seen := map[uint64]bool{}
	for _, b := range rg.mulog {
		if seen[b.gen] {
			t.Errorf("generation %d logged twice with different content", b.gen)
		}
		seen[b.gen] = true
	}
	rg.muMu.Unlock()
}

// ghostFailReplica applies mutation batches but reports a transport
// failure AFTER the inner backend committed — the "response lost on the
// wire" case.
type ghostFailReplica struct {
	ShardBackend
	fail  atomic.Bool
	calls atomic.Int32
}

func (m *ghostFailReplica) Mutate(ctx context.Context, ms []graph.Mutation) (live.MutateInfo, error) {
	m.calls.Add(1)
	info, err := m.ShardBackend.(shardMutator).Mutate(ctx, ms)
	if err == nil && m.fail.Load() {
		return live.MutateInfo{}, errors.New("transport dropped the committed response")
	}
	return info, err
}

func (m *ghostFailReplica) Generation() uint64 {
	return m.ShardBackend.(interface{ Generation() uint64 }).Generation()
}

// TestReplicaGroupMutateAppliedDespiteError: a replica that APPLIES a
// batch but fails to deliver the response must not have the batch
// re-sent — that would double-apply it and advance the replica two
// generations ahead of its siblings, with no catch-up batch for the
// hole (regression). The retry guard probes the generation instead.
func TestReplicaGroupMutateAppliedDespiteError(t *testing.T) {
	g := tg.Path(20)
	ctx := context.Background()
	mk := func() ShardBackend {
		t.Helper()
		b, err := liveStore(g, live.Config{PoolSize: 1}, Modulo{}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ghost := &ghostFailReplica{ShardBackend: mk()}
	ghost.fail.Store(true)
	rg, err := NewReplicaGroup([]ShardBackend{ghost, mk()}, Config{})
	if err != nil {
		t.Fatal(err)
	}

	info, err := rg.Mutate(ctx, []graph.Mutation{graph.SetWeight(0, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := ghost.calls.Load(); got != 1 {
		t.Fatalf("batch sent %d times to the failing replica, want 1 (re-sending double-applies)", got)
	}
	if info.Generation != 2 {
		t.Fatalf("batch advanced to generation %d, want 2", info.Generation)
	}
	if ghost.Generation() != 2 {
		t.Fatalf("ghost replica at generation %d, want 2 (exactly one apply)", ghost.Generation())
	}
}

// TestCoordinatorMutateAppliedDespiteError is the coordinator's twin of
// TestReplicaGroupMutateAppliedDespiteError: an unreplicated live shard
// that applies a batch and then reports an error must not be sent the
// batch again, and the coordinator reports the one apply.
func TestCoordinatorMutateAppliedDespiteError(t *testing.T) {
	g := tg.Path(20)
	stores := make([]*live.Store, 2)
	for i := range stores {
		s, err := liveStore(g, live.Config{PoolSize: 1}, Modulo{}, 2, i)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	ghost := &ghostFailReplica{ShardBackend: stores[0]}
	ghost.fail.Store(true)
	coord, err := New([]ShardBackend{ghost, stores[1]}, Config{})
	if err != nil {
		t.Fatal(err)
	}

	info, err := coord.Mutate(context.Background(), []graph.Mutation{graph.SetWeight(0, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := ghost.calls.Load(); got != 1 {
		t.Fatalf("batch sent %d times to the failing shard, want 1 (re-sending double-applies)", got)
	}
	if info.Generation != 2 {
		t.Fatalf("batch advanced to generation %d, want 2", info.Generation)
	}
	for i, s := range stores {
		if s.Generation() != 2 {
			t.Fatalf("shard %d at generation %d, want 2 (exactly one apply)", i, s.Generation())
		}
	}
}

// bootLiveServer serves a live store over a copy of g behind
// internal/server, through wrap when it is not nil.
func bootLiveServer(t *testing.T, g *graph.Graph, wrap func(http.Handler) http.Handler) (*server.Server, *live.Store, *RemoteShard) {
	t.Helper()
	store, err := live.NewStore(g.Clone(), live.Config{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Backend: store, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	rs, err := NewRemoteShard(context.Background(), ts.URL, RemoteExpect{Nodes: g.N()})
	if err != nil {
		t.Fatal(err)
	}
	return srv, store, rs
}

// TestRemoteReplicaMutateAppliedDespiteAbort is the retry guard over the
// wire: a replica server that commits a batch and then drops the
// connection is probed through /healthz, not sent the batch again, and
// the probe still reads the generation once that server drains (503).
func TestRemoteReplicaMutateAppliedDespiteAbort(t *testing.T) {
	g := tg.Path(20)
	ctx := context.Background()
	var mutates atomic.Int32
	lossySrv, lossyStore, lossy := bootLiveServer(t, g, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/mutate" {
				h.ServeHTTP(w, r)
				return
			}
			mutates.Add(1)
			h.ServeHTTP(httptest.NewRecorder(), r) // commits; the answer goes nowhere
			panic(http.ErrAbortHandler)
		})
	})
	_, store, sibling := bootLiveServer(t, g, nil)
	rg, err := NewReplicaGroup([]ShardBackend{lossy, sibling}, Config{})
	if err != nil {
		t.Fatal(err)
	}

	info, err := rg.Mutate(ctx, []graph.Mutation{graph.SetWeight(0, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := mutates.Load(); got != 1 {
		t.Fatalf("batch sent %d times to the lossy replica, want 1 (re-sending double-applies)", got)
	}
	if info.Generation != 2 || lossyStore.Generation() != 2 || store.Generation() != 2 {
		t.Fatalf("generations: batch %d, lossy replica %d, sibling %d; want 2 each",
			info.Generation, lossyStore.Generation(), store.Generation())
	}

	if err := lossySrv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if gen, err := lossy.ProbeGeneration(ctx); err != nil || gen != 2 {
		t.Fatalf("probe of a draining replica = %d, %v; want 2, nil", gen, err)
	}
}

// TestCoordinatorMutateImmutableReplicaGroup: a replica group of
// immutable shards must surface ImmutableShardError (501) through the
// coordinator, not be miscounted as a generic mutation failure (503).
func TestCoordinatorMutateImmutableReplicaGroup(t *testing.T) {
	g := tg.Path(20)
	members := localShards(t, g, 2)
	rg, err := NewReplicaGroup(members, Config{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New([]ShardBackend{rg}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Mutate(context.Background(), []graph.Mutation{graph.SetWeight(0, 1, 2)})
	var ise *ImmutableShardError
	if !errors.As(err, &ise) {
		t.Fatalf("error = %v, want ImmutableShardError", err)
	}
}

// answerBytes posts body to url under a fixed request ID and returns the
// answer document with its timings and work counters cleared, encoded
// again: what is left must be byte-identical across backends.
func answerBytes(t *testing.T, url, body string, batch bool) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "composite-0001")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("POST %s: status %d, %v: %s", url, resp.StatusCode, err, raw)
		return nil
	}
	var doc any
	if batch {
		var br api.BatchResponse
		err = json.Unmarshal(raw, &br)
		br.ElapsedMS = 0
		for i := range br.Results {
			br.Results[i].ElapsedMS, br.Results[i].Stats = 0, nil
		}
		doc = br
	} else {
		var qr api.QueryResponse
		err = json.Unmarshal(raw, &qr)
		qr.ElapsedMS, qr.Stats = 0, nil
		doc = qr
	}
	if err != nil {
		t.Errorf("decode %s: %v", raw, err)
		return nil
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Error(err)
	}
	return out
}

// TestReplicaGroupServesHTTP: a ReplicaGroup of two unmasked pools over
// one graph, one of them failing every call, stands behind server.New
// both directly and through cache.NewBackend, and answers /v1/query and
// /v1/batch exactly as a server over a single pool does, while requests
// race each other (-race target).
func TestReplicaGroupServesHTTP(t *testing.T) {
	g := tieHeavy(21, false, 80)
	serve := func(b server.Backend) string {
		t.Helper()
		srv, err := server.New(server.Config{Backend: b, Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	single := serve(core.NewPool(g, core.Options{}, 2))

	om := obs.NewMetrics(nil)
	dead := &flakyReplica{ShardBackend: core.NewPool(g, core.Options{}, 1)}
	dead.failQuery.Store(true)
	rg, err := NewReplicaGroup([]ShardBackend{dead, core.NewPool(g, core.Options{}, 2)}, Config{Metrics: om})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := cache.NewBackend(rg, cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	queries := workload.Random(g, 12, 5)
	var bodies []string
	for _, algo := range []string{"static", "dynamic"} {
		for _, q := range queries {
			bodies = append(bodies, fmt.Sprintf(`{"algorithm":%q,"q":%d,"k":6}`, algo, q))
		}
	}
	batch := fmt.Sprintf(`{"algorithm":"dynamic","queries":%s,"k":6}`, strings.ReplaceAll(fmt.Sprint(queries), " ", ","))
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		want[i] = answerBytes(t, single+"/v1/query", body, false)
	}
	wantBatch := answerBytes(t, single+"/v1/batch", batch, true)

	for name, url := range map[string]string{"group": serve(rg), "cached group": serve(cached)} {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each worker sends every query twice (the cached server
				// answers the second from the cache), in its own order.
				for n := 0; n < 2*len(bodies); n++ {
					i := (n + 5*w) % len(bodies)
					if got := answerBytes(t, url+"/v1/query", bodies[i], false); !bytes.Equal(got, want[i]) {
						t.Errorf("%s: %s answered\n %s\nwant\n %s", name, bodies[i], got, want[i])
					}
				}
				if got := answerBytes(t, url+"/v1/batch", batch, true); !bytes.Equal(got, wantBatch) {
					t.Errorf("%s: batch answered\n %s\nwant\n %s", name, got, wantBatch)
				}
			}(w)
		}
		wg.Wait()
	}
	if om.ReplicaFailovers.Value() == 0 {
		t.Error("no failover counted although one replica fails every call")
	}
}
