package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"rkranks/internal/api"
	"rkranks/internal/cache"
	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
)

// mergedShardMaxK is the index K of the shard servers below.
const mergedShardMaxK = 20

// newMergedShard boots a server over a cached, masked Indexed pool: one
// shard of a two-shard cluster (every other node), the shape whose
// answers depend on a request's merged_k.
func newMergedShard(t testing.TB, g *graph.Graph) (*Server, *core.Pool) {
	t.Helper()
	mask := make([]bool, g.N())
	for v := range mask {
		mask[v] = v%2 == 0
	}
	ix, err := ridx.BuildSharded(g, ridx.BuildParams{Hubs: []int32{0, 1, 2, 3}, M: g.N() / 4, K: mergedShardMaxK}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := core.NewPoolWithIndex(g, core.Options{Candidates: mask}, 2, ix)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := cache.NewBackend(pool, cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Backend: cached, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	return s, pool
}

// TestMergedKCacheKey: a merged-k shard answer may be shorter than the
// canonical one, so the response cache must key on the merged k. A plain
// query sent after a merged-k query for the same (q, k) must still get
// the canonical answer, on /v1/query and on /v1/batch.
func TestMergedKCacheKey(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 300, AttachPerNode: 4, Seed: 9})
	s, pool := newMergedShard(t, g)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := api.NewClient(ts.URL)
	ctx := context.Background()
	merged := core.WithMergedK(ctx, 10)

	// Find a query whose merged-k answer differs from the canonical one.
	const k = 3
	q, found := int32(-1), false
	for v := int32(1); int(v) < g.N() && !found; v += 2 {
		plain, err := pool.Query(core.Dynamic, v, k)
		if err != nil {
			t.Fatal(err)
		}
		short, err := pool.QueryContext(merged, core.Dynamic, v, k)
		if err != nil {
			t.Fatal(err)
		}
		q, found = v, fmt.Sprint(short.Entries) != fmt.Sprint(plain.Entries)
	}
	if !found {
		t.Fatal("no query whose merged-k answer differs from the canonical one")
	}
	canonical, err := pool.Query(core.Dynamic, q, k)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(canonical.Entries)
	wire := func(es []api.Entry) string {
		out := make([]rank.Entry, len(es))
		for i, e := range es {
			out[i] = rank.Entry{Node: e.Node, Rank: e.Rank}
		}
		return fmt.Sprint(out)
	}

	first, err := c.Query(merged, api.AlgoDynamic, q, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wire(first.Entries) == want {
		t.Fatalf("q=%d: merged-k answer over the wire is the canonical one", q)
	}
	second, err := c.Query(ctx, api.AlgoDynamic, q, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := wire(second.Entries); got != want {
		t.Fatalf("q=%d: plain query after a merged-k one got %s, want %s", q, got, want)
	}

	if _, err := c.Batch(merged, api.AlgoDynamic, []int32{q, q + 2}, k, 0); err != nil {
		t.Fatal(err)
	}
	batch, err := c.Batch(ctx, api.AlgoDynamic, []int32{q, q + 2}, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := wire(batch.Results[0].Entries); got != want {
		t.Fatalf("q=%d: plain batch after a merged-k one got %s, want %s", q, got, want)
	}
}

// TestMergedKValidation: a merged k below k, or above the index K of an
// indexed query, is a client fault.
func TestMergedKValidation(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 100, AttachPerNode: 3, Seed: 2})
	s, _ := newMergedShard(t, g)
	cases := []struct {
		name, body string
		status     int
	}{
		{"below k", `{"algorithm":"dynamic","q":1,"k":5,"merged_k":4}`, http.StatusBadRequest},
		{"negative", `{"algorithm":"dynamic","q":1,"k":5,"merged_k":-1}`, http.StatusBadRequest},
		{"above index K", `{"algorithm":"indexed","q":1,"k":5,"merged_k":21}`, http.StatusBadRequest},
		{"batch below k", `{"algorithm":"dynamic","queries":[1,3],"k":5,"merged_k":2}`, http.StatusBadRequest},
		{"at index K", `{"algorithm":"indexed","q":1,"k":5,"merged_k":20}`, http.StatusOK},
		{"dynamic above index K", `{"algorithm":"dynamic","q":1,"k":5,"merged_k":1000}`, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := "/v1/query"
			if bytes.Contains([]byte(tc.body), []byte("queries")) {
				path = "/v1/batch"
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(tc.body))))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if tc.status != http.StatusOK {
				var e api.ErrorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != api.CodeInvalidArgument {
					t.Fatalf("error body %s (%v), want code %s", rec.Body, err, api.CodeInvalidArgument)
				}
			}
		})
	}
}
