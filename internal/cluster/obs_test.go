package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/obs"
	"rkranks/internal/server"
)

// bootRecordingShard is bootShardServer with the flight recorder set to
// capture every request, and the Server returned so the test can read
// the recorder back.
func bootRecordingShard(t *testing.T, g *graph.Graph, shards, shard int) (*server.Server, *httptest.Server) {
	t.Helper()
	mask, err := ShardMask(g, Modulo{}, shards, shard, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPool(g, core.Options{Candidates: mask}, 2)
	srv, err := server.New(server.Config{
		Pool:               pool,
		Graph:              g,
		SlowQueryThreshold: -1,
		HealthExtra: map[string]any{
			"shard":             fmt.Sprintf("%d/%d", shard, shards),
			"shard_partitioner": "modulo",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestTracePropagatesAcrossShards: a coordinator-side trace's request ID
// rides the X-Request-Id header into every remote shard server, so the
// shard-side flight-recorder records stitch to the coordinator's trace;
// and the coordinator's own trace carries the scatter with one child
// span per shard.
func TestTracePropagatesAcrossShards(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 200, AttachPerNode: 4, ExtraCollabFactor: 0.5, Seed: 3})
	const shards = 2
	servers := make([]*server.Server, shards)
	backends := make([]ShardBackend, shards)
	for i := 0; i < shards; i++ {
		srv, ts := bootRecordingShard(t, g, shards, i)
		servers[i] = srv
		rs, err := NewRemoteShard(context.Background(), ts.URL, RemoteExpect{
			Nodes: g.N(), Shard: fmt.Sprintf("%d/%d", i, shards), Partitioner: "modulo",
		})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = rs
	}
	coord, err := New(backends, Config{})
	if err != nil {
		t.Fatal(err)
	}

	const rid = "stitched-trace-0001"
	tr := obs.NewTrace(rid, "query")
	defer tr.Release()
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, err := coord.QueryContext(ctx, core.Dynamic, 7, 10); err != nil {
		t.Fatal(err)
	}

	// Both shard servers must have recorded the coordinator's ID: one
	// request, one stitched trace across three processes.
	for i, srv := range servers {
		snap := srv.Recorder().Snapshot()
		found := false
		for _, rec := range snap.Slow {
			if rec.RequestID == rid {
				found = true
				if rec.Route != "query" {
					t.Errorf("shard %d recorded route %q, want query", i, rec.Route)
				}
			}
		}
		if !found {
			t.Errorf("shard %d never saw request ID %q; records: %+v", i, rid, snap.Slow)
		}
	}

	// The coordinator trace holds the scatter as a parent span plus
	// one child span per shard.
	var parents, children int
	for _, sp := range tr.Spans() {
		if sp.Stage != obs.StageScatter {
			continue
		}
		if sp.Shard < 0 {
			parents++
		} else {
			children++
		}
	}
	if parents != 1 || children != shards {
		t.Errorf("scatter spans: %d parents, %d children; want 1 and %d", parents, children, shards)
	}
}
