package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"rkranks/internal/api"
	"rkranks/internal/core"
	"rkranks/internal/ridx"
)

// newReplicatedServer boots a server whose pool's shared index is
// wrapped in ridx.Replicated — the leader configuration of the index
// replication endpoints. Returns the wrapper so tests can drive
// refinement directly.
func newReplicatedServer(t *testing.T, logCap int) (*ridx.Replicated, *httptest.Server) {
	t.Helper()
	g := testGraph()
	sh, err := ridx.BuildSharded(g, ridx.BuildParams{Hubs: []int32{0, 1, 2, 3}, M: 40, K: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	repl := ridx.NewReplicated(sh, logCap)
	pool, err := core.NewPoolWithIndex(g, core.Options{}, 2, repl)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: pool, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return repl, ts
}

// indexStateEqual compares full dictionary state between two indexes.
func indexStateEqual(t *testing.T, got, want ridx.Index) {
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

// TestIndexReplicationUnimplemented: a backend without a Replicated
// index answers 501 on both endpoints, in the v1 error envelope.
func TestIndexReplicationUnimplemented(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, true) // plain sharded index, no Replicated wrapper
	c := api.NewClient(ts.URL)

	if _, _, _, err := c.IndexSnapshot(context.Background()); !isUnimplemented(err) {
		t.Fatalf("snapshot on unreplicated backend: %v, want 501 unimplemented", err)
	}
	if _, err := c.IndexDeltas(context.Background(), 0, 0); !isUnimplemented(err) {
		t.Fatalf("deltas on unreplicated backend: %v, want 501 unimplemented", err)
	}
}

func isUnimplemented(err error) bool {
	var se *api.StatusError
	return errors.As(err, &se) && se.Status == http.StatusNotImplemented && se.Code == api.CodeUnimplemented
}

// TestIndexSnapshotRoundTrip: the snapshot body streams the ridx on-disk
// format with cursor headers; reading it back reproduces the
// leader's exact dictionary state, and /statsz grows a replication
// section counting the serve.
func TestIndexSnapshotRoundTrip(t *testing.T) {
	repl, ts := newReplicatedServer(t, 0)
	for i := int32(0); i < 50; i++ {
		repl.Offer(i%40, (i+3)%40, i+1)
		if i%5 == 0 {
			repl.RaiseCheck(i%40, i/2+1)
		}
	}

	c := api.NewClient(ts.URL)
	body, seq, gen, err := c.IndexSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	if seq != repl.Seq() {
		t.Errorf("X-Index-Seq = %d, want %d", seq, repl.Seq())
	}
	if gen != repl.Generation() {
		t.Errorf("X-Index-Generation = %d, want %d", gen, repl.Generation())
	}
	follower, err := ridx.Read(body)
	if err != nil {
		t.Fatal(err)
	}
	indexStateEqual(t, follower.Sharded(), repl)

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Replication == nil {
		t.Fatal("statsz has no replication section on a replicated backend")
	}
	if snap.Replication.IndexSnapshotsServed < 1 {
		t.Errorf("index_snapshots_served = %d, want >= 1", snap.Replication.IndexSnapshotsServed)
	}
	if snap.Replication.IndexSeq != repl.Seq() {
		t.Errorf("statsz index_seq = %d, want %d", snap.Replication.IndexSeq, repl.Seq())
	}
}

// TestIndexDeltasCursor: deltas stream from a cursor in bounded batches
// until Next stops advancing; replaying them onto a bootstrap snapshot
// converges on the leader's state.
func TestIndexDeltasCursor(t *testing.T) {
	repl, ts := newReplicatedServer(t, 0)
	c := api.NewClient(ts.URL)

	body, seq, _, err := c.IndexSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ridx.Read(body)
	body.Close()
	if err != nil {
		t.Fatal(err)
	}
	follower := snap.Sharded()

	// Leader learns after the snapshot was cut.
	for i := int32(0); i < 60; i++ {
		repl.Offer((i*7)%40, (i+11)%40, i%30+1)
	}

	cursor := seq
	for {
		resp, err := c.IndexDeltas(context.Background(), cursor, 13)
		if err != nil {
			t.Fatal(err)
		}
		if resp.SnapshotRequired {
			t.Fatalf("cursor %d unexpectedly fell off the log", cursor)
		}
		if resp.Since != cursor {
			t.Fatalf("since echoed %d, want %d", resp.Since, cursor)
		}
		if len(resp.Deltas) == 0 {
			break
		}
		if len(resp.Deltas) > 13 {
			t.Fatalf("batch of %d exceeds max=13", len(resp.Deltas))
		}
		ds, err := api.DecodeDeltas(resp.Deltas)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			switch d.Op {
			case ridx.DeltaOffer:
				follower.Offer(d.V, d.U, d.R)
			case ridx.DeltaCheck:
				follower.RaiseCheck(d.U, d.R)
			}
		}
		cursor = resp.Next
	}
	indexStateEqual(t, follower, repl)
}

// TestIndexDeltasTruncation: a cursor older than the bounded log reports
// snapshot_required with the resume cursor, instead of silently skipping
// the missed deltas.
func TestIndexDeltasTruncation(t *testing.T) {
	repl, ts := newReplicatedServer(t, 8)
	for i := int32(0); i < 30; i++ {
		repl.Offer(i%40, (i+1)%40, i+1)
	}
	c := api.NewClient(ts.URL)
	resp, err := c.IndexDeltas(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.SnapshotRequired {
		t.Fatal("cursor 0 on a cap-8 log must require a snapshot")
	}
	if len(resp.Deltas) != 0 {
		t.Fatalf("snapshot_required response carried %d deltas", len(resp.Deltas))
	}
	if resp.Next != repl.Seq() {
		t.Errorf("resume cursor = %d, want Seq %d", resp.Next, repl.Seq())
	}
}

// TestIndexDeltasValidation: malformed cursors are the caller's fault.
func TestIndexDeltasValidation(t *testing.T) {
	_, ts := newReplicatedServer(t, 0)
	for _, url := range []string{
		ts.URL + "/v1/index/deltas",           // missing since
		ts.URL + "/v1/index/deltas?since=abc", // non-numeric
		ts.URL + "/v1/index/deltas?since=0&max=0",
		ts.URL + "/v1/index/deltas?since=0&max=-3",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var e api.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeInvalidArgument {
			t.Errorf("%s: status %d code %q, want 400 invalid_argument", url, resp.StatusCode, e.Code)
		}
	}
}
