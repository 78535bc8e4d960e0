package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/live"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
	"rkranks/internal/sssp"
)

func testGraph() *graph.Graph {
	return gen.DBLPLike(gen.DBLPLikeParams{Nodes: 400, AttachPerNode: 4, Seed: 9})
}

// slowGraph is big enough that a naive large-k query takes hundreds of
// milliseconds — long enough to observe admission and drain mid-flight.
func slowGraph() *graph.Graph {
	return gen.DBLPLike(gen.DBLPLikeParams{Nodes: 3000, AttachPerNode: 5, Seed: 9})
}

// newTestServer boots a Server over a fresh pool (with a shared concurrent
// index when withIndex) behind httptest.
func newTestServer(t *testing.T, cfg Config, withIndex bool) (*Server, *httptest.Server, *graph.Graph) {
	t.Helper()
	return newTestServerOn(t, cfg, withIndex, testGraph())
}

func newTestServerOn(t *testing.T, cfg Config, withIndex bool, g *graph.Graph) (*Server, *httptest.Server, *graph.Graph) {
	t.Helper()
	var pool *core.Pool
	if withIndex {
		sh, err := ridx.BuildSharded(g, ridx.BuildParams{Hubs: []int32{0, 1, 2, 3}, M: 40, K: 50}, 0)
		if err != nil {
			t.Fatal(err)
		}
		pool, err = core.NewPoolWithIndex(g, core.Options{}, 4, sh)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		pool = core.NewPool(g, core.Options{}, 4)
	}
	cfg.Pool = pool
	cfg.Graph = g
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, g
}

func TestQueryEndpoint(t *testing.T) {
	_, ts, g := newTestServer(t, Config{}, false)
	c := api.NewClient(ts.URL)

	resp, err := c.Query(context.Background(), "dynamic", 7, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Query != 7 || resp.K != 5 || resp.Algorithm != "dynamic" {
		t.Errorf("response header wrong: %+v", resp)
	}
	if len(resp.Entries) != 5 {
		t.Fatalf("got %d entries, want 5", len(resp.Entries))
	}
	if resp.Stats == nil || resp.Stats.Refinements == 0 {
		t.Errorf("missing work stats: %+v", resp.Stats)
	}

	// The wire answer must match the engine answer exactly.
	want, err := core.NewEngine(g, core.Options{}).Query(core.Dynamic, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range want.Entries {
		if resp.Entries[i].Node != e.Node || resp.Entries[i].Rank != e.Rank {
			t.Errorf("entry %d: wire %+v != engine %+v", i, resp.Entries[i], e)
		}
	}
}

func TestQueryValidationMapsTo400(t *testing.T) {
	_, ts, g := newTestServer(t, Config{}, false)
	c := api.NewClient(ts.URL)
	cases := []struct {
		name string
		algo string
		q    int32
		k    int
	}{
		{"unknown algorithm", "bogus", 0, 5},
		{"k zero", "dynamic", 0, 0},
		{"q out of range", "dynamic", int32(g.N() + 1), 5},
		{"indexed without index", "indexed", 0, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Query(context.Background(), api.Algorithm(tc.algo), tc.q, tc.k, 0)
			if !isStatus(err, 400) {
				t.Fatalf("got %v, want HTTP 400", err)
			}
		})
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts, g := newTestServer(t, Config{}, true)
	c := api.NewClient(ts.URL)
	queries := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	resp, err := c.Batch(context.Background(), "", queries, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Algorithm != "indexed" {
		t.Errorf("default algorithm %q, want indexed (pool has an index)", resp.Algorithm)
	}
	if len(resp.Results) != len(queries) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(queries))
	}
	oracle := core.NewEngine(g, core.Options{})
	for i, r := range resp.Results {
		if r.Query != queries[i] {
			t.Errorf("result %d out of order: %d", i, r.Query)
		}
		want, err := oracle.Query(core.Dynamic, queries[i], 5)
		if err != nil {
			t.Fatal(err)
		}
		// Rank multisets must agree (ties may resolve to different nodes).
		for j, e := range want.Entries {
			if r.Entries[j].Rank != e.Rank {
				t.Errorf("q=%d entry %d: rank %d != oracle %d", queries[i], j, r.Entries[j].Rank, e.Rank)
			}
		}
	}

	if _, err := c.Batch(context.Background(), "", nil, 5, 0); !isStatus(err, 400) {
		t.Errorf("empty batch: got %v, want 400", err)
	}
}

func TestPprofOptIn(t *testing.T) {
	_, off, _ := newTestServer(t, Config{}, false)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof: status %d, want 404", resp.StatusCode)
	}

	_, on, _ := newTestServer(t, Config{EnablePprof: true}, false)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	_, ts, g := newTestServer(t, Config{}, true)
	c := api.NewClient(ts.URL)
	doc, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "ok" || int(doc["graph_nodes"].(float64)) != g.N() || doc["indexed"] != true {
		t.Errorf("healthz: %v", doc)
	}

	if _, err := c.Query(context.Background(), "", 3, 5, 0); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.RequestsTotal < 1 || snap.QueriesOK < 1 {
		t.Errorf("statsz did not count the query: %+v", snap)
	}
	if snap.QueryStats.Refinements+snap.QueryStats.IndexHits+snap.QueryStats.SeededFromIndex == 0 {
		t.Errorf("statsz missing engine counters: %+v", snap.QueryStats)
	}
	if snap.Latency.Window < 1 || snap.Latency.P99 < snap.Latency.P50 {
		t.Errorf("statsz latency window malformed: %+v", snap.Latency)
	}
	if snap.PoolSize != 4 {
		t.Errorf("pool size %d, want 4", snap.PoolSize)
	}
	if snap.CSRBytes <= 0 {
		t.Errorf("csr_bytes %d, want > 0 after a served query", snap.CSRBytes)
	}

	// A batch of repeated queries must engage the shared-traversal
	// executor: the aggregated counter and the derived reuse ratio move.
	queries := make([]int32, 0, 24)
	for i := 0; i < 8; i++ {
		queries = append(queries, 3, 7, 11)
	}
	if _, err := c.Batch(context.Background(), "dynamic", queries, 5, 0); err != nil {
		t.Fatal(err)
	}
	if snap, err = c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap.BatchSharedTraversals < 1 {
		t.Errorf("batch_shared_traversals %d, want >= 1 after a repetitive batch", snap.BatchSharedTraversals)
	}
	if snap.TraversalReuseRatio <= 0 || snap.TraversalReuseRatio > 1 {
		t.Errorf("traversal_reuse_ratio %v, want in (0, 1]", snap.TraversalReuseRatio)
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	// Naive with a huge k cannot finish in 1ms on the slow graph.
	_, ts, _ := newTestServerOn(t, Config{}, false, slowGraph())
	c := api.NewClient(ts.URL)
	_, err := c.Query(context.Background(), "naive", 0, 500, time.Millisecond)
	if !isStatus(err, 504) {
		t.Fatalf("got %v, want HTTP 504", err)
	}
}

func TestAdmissionControl(t *testing.T) {
	// The slow graph keeps each naive query in flight long enough that the
	// 24 concurrent arrivals genuinely overlap; on the small test graph a
	// query can finish before the next goroutine is even scheduled, so
	// nothing ever queues and nothing is shed.
	s, ts, _ := newTestServerOn(t, Config{MaxInFlight: 1, MaxQueue: 1}, false, slowGraph())
	c := api.NewClient(ts.URL)
	if s.cfg.MaxQueue != 1 {
		t.Fatalf("MaxQueue = %d", s.cfg.MaxQueue)
	}

	// Saturate: slow naive queries, far more than in-flight + queue slots.
	const n = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Query(context.Background(), "naive", 1, 300, 2*time.Second)
			st := 200
			if err != nil {
				var se *api.StatusError
				if !errors.As(err, &se) {
					t.Errorf("transport error: %v", err)
					return
				}
				st = se.Status
			}
			mu.Lock()
			counts[st]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if counts[429] == 0 {
		t.Errorf("no request was shed under 24x overload of a 2-slot server: %v", counts)
	}
	if counts[200]+counts[504] == 0 {
		t.Errorf("no admitted request completed: %v", counts)
	}
}

// TestConcurrentClientsSharedIndex hammers the server from many clients
// against a pool over one shared concurrent index and cross-checks every
// response against the index-free oracle. Run under -race in CI, this is
// the server-level race test the engine-level tests cannot cover (HTTP
// handler state, admission bookkeeping, metrics).
func TestConcurrentClientsSharedIndex(t *testing.T) {
	_, ts, g := newTestServer(t, Config{MaxInFlight: 8, MaxQueue: 64}, true)
	c := api.NewClient(ts.URL)

	// Same result semantics the engine tests assert: the rank multiset
	// must match the index-free oracle (tie groups may resolve to
	// different nodes — any resolution is a valid answer), and every
	// reported rank must be truthful.
	oracle := core.NewEngine(g, core.Options{})
	var oracleMu sync.Mutex
	ranksFor := func(q int32) string {
		oracleMu.Lock()
		defer oracleMu.Unlock()
		res, err := oracle.Query(core.Dynamic, q, 5)
		if err != nil {
			t.Error(err)
			return ""
		}
		ranks := make([]int32, len(res.Entries))
		for i, e := range res.Entries {
			ranks[i] = e.Rank
		}
		return fmt.Sprint(ranks)
	}
	truthful := func(q int32, e api.Entry) bool {
		oracleMu.Lock()
		defer oracleMu.Unlock()
		return rank.Of(sssp.New(g), e.Node, q) == e.Rank
	}

	const clients, perClient = 16, 8
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := int32((cl*perClient + i) % g.N())
				resp, err := c.Query(context.Background(), "indexed", q, 5, 10*time.Second)
				if err != nil {
					t.Errorf("q=%d: %v", q, err)
					return
				}
				ranks := make([]int32, len(resp.Entries))
				for j, e := range resp.Entries {
					ranks[j] = e.Rank
					if !truthful(q, e) {
						t.Errorf("q=%d: served untruthful rank %+v", q, e)
						return
					}
				}
				if got, want := fmt.Sprint(ranks), ranksFor(q); want != "" && got != want {
					t.Errorf("q=%d: served ranks %s, oracle %s", q, got, want)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
}

// TestDrainNoDroppedResponses is the graceful-drain contract: requests
// admitted before Drain all complete with 200, requests arriving during
// the drain are refused with 503, and Drain returns only after the last
// admitted response is written.
func TestDrainNoDroppedResponses(t *testing.T) {
	s, ts, _ := newTestServerOn(t, Config{MaxInFlight: 4, MaxQueue: 4}, false, slowGraph())
	c := api.NewClient(ts.URL)

	// Launch slow queries and wait until all four are admitted.
	const n = 4
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(q int32) {
			_, err := c.Query(context.Background(), "naive", q, 500, 30*time.Second)
			results <- err
		}(int32(i))
	}
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
			t.Fatalf("requests never became in-flight: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Mid-drain traffic is refused, not dropped.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Query(context.Background(), "dynamic", 1, 5, 0); !isStatus(err, 503) {
		t.Errorf("query during drain: got %v, want 503", err)
	}
	if _, err := c.Health(context.Background()); !isStatus(err, 503) {
		t.Errorf("healthz during drain: got %v, want 503", err)
	}

	// Every admitted request completes successfully — zero dropped.
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Errorf("in-flight request dropped during drain: %v", err)
		}
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
	// After a completed drain, nothing is in flight.
	snap, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.InFlight != 0 || !snap.Draining {
		t.Errorf("post-drain statsz: %+v", snap)
	}
}

// TestDrainIdempotent: double drain returns immediately both times.
func TestDrainIdempotent(t *testing.T) {
	s, _, _ := newTestServer(t, Config{}, false)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// newLiveServer serves a fresh live store over a 20-node graph with one
// engine, as rkserve -live does.
func newLiveServer(tb testing.TB) (*live.Store, http.Handler) {
	tb.Helper()
	g := gen.GNM(20, 40, false, 3)
	st, err := live.NewStore(g, live.Config{PoolSize: 1})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Config{Backend: st, Graph: g})
	if err != nil {
		tb.Fatal(err)
	}
	return st, srv.Handler()
}

// TestMutateCapsAddedVertices: one /v1/mutate batch may add at most
// MaxBatch vertices across its add_vertex ops, a count <= 0 adding one.
// Every added vertex grows the live graph and each engine's per-node
// arrays, so without the cap a 55-byte body could ask for hundreds of GB.
func TestMutateCapsAddedVertices(t *testing.T) {
	st, h := newLiveServer(t)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/mutate", strings.NewReader(body)))
		return rec
	}
	// 1,023 + 1 = MaxBatch's default of 1,024.
	rec := post(`{"mutations":[{"op":"add_vertex","count":1023},{"op":"add_vertex","count":0}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("adding MaxBatch vertices: status %d: %s", rec.Code, rec.Body)
	}
	if n := st.Graph().N(); n != 20+1024 {
		t.Fatalf("graph has %d nodes, want %d", n, 20+1024)
	}
	gen := st.Generation()
	for _, body := range []string{
		`{"mutations":[{"op":"add_vertex","count":1025}]}`,
		`{"mutations":[{"op":"add_vertex","count":1023},{"op":"add_vertex","count":-5},{"op":"add_vertex"}]}`,
	} {
		rec := post(body)
		var e api.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest || e.Code != api.CodeInvalidArgument {
			t.Errorf("%s: status %d %q, want 400 %s", body, rec.Code, rec.Body, api.CodeInvalidArgument)
		}
	}
	if st.Generation() != gen || st.Graph().N() != 20+1024 {
		t.Error("a rejected batch changed the store")
	}
}
