package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/cache"
	"rkranks/internal/core"
	"rkranks/internal/rank"
	tg "rkranks/internal/testgraphs"
)

// fakeBackend implements Backend (plus the optional cluster probe) so
// the server's backend abstraction is tested without a dependency on
// internal/cluster — whose own tests cover the real coordinator behind
// this same interface.
type fakeBackend struct {
	err     error
	partial bool
	shards  int
}

func (f *fakeBackend) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	if f.err != nil {
		return nil, f.err
	}
	return &core.Result{
		Query:   q,
		K:       k,
		Entries: []rank.Entry{{Node: q + 1, Rank: 1}},
		Partial: f.partial,
	}, nil
}

func (f *fakeBackend) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	out := make([]*core.Result, len(queries))
	for i, q := range queries {
		res, err := f.QueryContext(ctx, a, q, k)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

func (f *fakeBackend) Size() int       { return 2 }
func (f *fakeBackend) Indexed() bool   { return false }
func (f *fakeBackend) ShardCount() int { return f.shards }

// overloadErr mimics cluster.OverloadedError without importing it (that
// would be an import cycle from this in-package test).
type overloadErr struct{ after time.Duration }

func (e *overloadErr) Error() string                 { return "shards overloaded" }
func (e *overloadErr) HTTPStatus() (int, string)     { return http.StatusTooManyRequests, "overloaded" }
func (e *overloadErr) RetryAfterHint() time.Duration { return e.after }

// unavailableErr mimics cluster.ShardError.
type unavailableErr struct{}

func (e *unavailableErr) Error() string { return "shard 2 unavailable" }
func (e *unavailableErr) HTTPStatus() (int, string) {
	return http.StatusServiceUnavailable, "shard_unavailable"
}

func newBackendServer(t *testing.T, b Backend) *httptest.Server {
	t.Helper()
	s, err := New(Config{Backend: b, Graph: tg.Toy()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postQuery(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestBackendPartialOnWire: a degraded cluster answer surfaces the
// partial flag in the response document.
func TestBackendPartialOnWire(t *testing.T) {
	ts := newBackendServer(t, &fakeBackend{partial: true, shards: 3})
	resp := postQuery(t, ts.URL, `{"q":1,"k":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Partial {
		t.Error("partial flag lost on the wire")
	}
}

// TestBackendRetryAfterPropagation is the satellite's server test: when
// the backend reports shard overload with a Retry-After hint (the max
// across 429ing shards), the server answers 429 carrying exactly that
// hint — not its own DefaultTimeout-derived queue estimate.
func TestBackendRetryAfterPropagation(t *testing.T) {
	b := &fakeBackend{err: &overloadErr{after: 42 * time.Second}}
	s, err := New(Config{Backend: b, Graph: tg.Toy(), DefaultTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp := postQuery(t, ts.URL, `{"q":1,"k":2}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "42" {
		t.Errorf("Retry-After = %q, want the shard max \"42\" (not the local queue estimate \"3\")", got)
	}
	var e api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "overloaded" {
		t.Errorf("code = %q", e.Code)
	}
}

// TestBackendShardUnavailableMapsTo503 covers the strict-consistency
// degradation contract.
func TestBackendShardUnavailableMapsTo503(t *testing.T) {
	ts := newBackendServer(t, &fakeBackend{err: &unavailableErr{}})
	resp := postQuery(t, ts.URL, `{"q":1,"k":2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var e api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "shard_unavailable" {
		t.Errorf("code = %q", e.Code)
	}
}

// TestHealthzClusterFields: a cluster-shaped backend's shard count and
// capacity on /healthz.
func TestHealthzClusterFields(t *testing.T) {
	ts := newBackendServer(t, &fakeBackend{shards: 4})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	health := mustDecode(t, resp)
	if health["shards"] != float64(4) {
		t.Errorf("healthz shards = %v", health["shards"])
	}
	if health["pool_size"] != float64(2) {
		t.Errorf("healthz pool_size = %v", health["pool_size"])
	}
}

// TestPoolHealthzHasNoClusterFields: single-node servers report no shard
// count, and GET /statsz, the retired JSON stats document, is gone.
func TestPoolHealthzHasNoClusterFields(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if doc := mustDecode(t, resp); doc["shards"] != nil {
		t.Errorf("pool healthz grew a shard count: %v", doc)
	}
	resp2, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("GET /statsz: status %d, want 404", resp2.StatusCode)
	}
}

func mustDecode(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestCachedBackendProbesThroughDecorator: wrapping a cluster-shaped
// backend in the response cache keeps the cluster probe working (it
// walks the Unwrap chain), the cache's counters move, and /metrics
// samples its occupancy.
func TestCachedBackendProbesThroughDecorator(t *testing.T) {
	inner := &fakeBackend{shards: 3}
	cached, err := cache.NewBackend(inner, cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ts := newBackendServer(t, cached)

	resp := postQuery(t, ts.URL, `{"algorithm":"dynamic","q":1,"k":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query status %d", resp.StatusCode)
	}
	resp = postQuery(t, ts.URL, `{"algorithm":"dynamic","q":1,"k":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat query status %d", resp.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["shards"] != float64(3) {
		t.Errorf("healthz shards through cache decorator = %v, want 3", health["shards"])
	}

	if st := cached.Cache().Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache counters = hits %d misses %d, want 1/1", st.Hits, st.Misses)
	}
	if got := scrape(t, ts.URL)["rkranks_cache_entries"]; got != 1 {
		t.Errorf("rkranks_cache_entries = %v, want 1", got)
	}
}
