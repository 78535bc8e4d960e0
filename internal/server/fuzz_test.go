package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	rtmetrics "runtime/metrics"
	"testing"

	"rkranks/internal/api"
	"rkranks/internal/gen"
)

// FuzzQueryBodies feeds arbitrary /v1/query and /v1/batch bodies, the
// merged_k field included, through the handler of a cached, masked
// Indexed shard server. The server must answer 200 with a well-formed
// result, or 4xx with the api error envelope; it must never answer 5xx
// or panic. A merged k below k, or above the index K of an indexed
// query, must be invalid_argument. The one legitimate 5xx is a 504 for a
// request whose own timeout_ms is too short to finish in.
//
//	go test ./internal/server -run '^$' -fuzz '^FuzzQueryBodies$' -fuzztime 30s
func FuzzQueryBodies(f *testing.F) {
	for _, seed := range []string{
		`{"q":1,"k":3}`,
		`{"algorithm":"indexed","q":4,"k":5,"merged_k":20}`,
		`{"algorithm":"dynamic","q":7,"k":2,"merged_k":10}`,
		`{"algorithm":"hublabel","q":1,"k":2}`,
		`{"algorithm":"naive","q":3,"k":4,"merged_k":4}`,
		`{"algorithm":"indexed","q":1,"k":5,"merged_k":21}`,
		`{"algorithm":"dynamic","q":1,"k":5,"merged_k":4}`,
		`{"q":-1,"k":1000000000000,"merged_k":-7,"timeout_ms":-3}`,
		`{"algorithm":"static","queries":[1,3,5],"k":3,"merged_k":9}`,
		`{"algorithm":"indexed","queries":[2,2,9],"k":20,"merged_k":20}`,
		`{"queries":[],"k":1}`,
		`{"q":1,"k":1,"bogus":true}`,
		`[1,2`,
	} {
		f.Add(seed)
	}
	s, _ := newMergedShard(f, gen.DBLPLike(gen.DBLPLikeParams{Nodes: 60, AttachPerNode: 3, Seed: 4}))
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		// A body with "queries" goes to /v1/batch, any other to /v1/query.
		var probe struct{ Queries json.RawMessage }
		_ = json.Unmarshal([]byte(body), &probe)
		batch := probe.Queries != nil
		path := "/v1/query"
		if batch {
			path = "/v1/batch"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body))))

		// The fields the checks below need, as the server reads them.
		var req struct {
			Algorithm api.Algorithm `json:"algorithm"`
			K         int           `json:"k"`
			MergedK   int           `json:"merged_k"`
			TimeoutMS int64         `json:"timeout_ms"`
		}
		decoded := json.Unmarshal([]byte(body), &req) == nil
		switch {
		case rec.Code == http.StatusOK:
			checkFuzzResponse(t, batch, rec.Body.Bytes())
		case rec.Code >= 400 && rec.Code < 500:
			var e api.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code == "" {
				t.Fatalf("status %d without the error envelope: %q", rec.Code, rec.Body)
			}
		case rec.Code == http.StatusGatewayTimeout && decoded && req.TimeoutMS > 0 && req.TimeoutMS < 100:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		if !decoded || req.MergedK == 0 {
			return
		}
		indexed := req.Algorithm == api.AlgoIndexed || req.Algorithm == ""
		if req.MergedK < req.K || (indexed && req.MergedK > mergedShardMaxK) {
			var e api.ErrorBody
			_ = json.Unmarshal(rec.Body.Bytes(), &e)
			if rec.Code != http.StatusBadRequest || e.Code != api.CodeInvalidArgument {
				t.Fatalf("merged_k %d with k %d answered %d %q, want 400 %s", req.MergedK, req.K, rec.Code, e.Code, api.CodeInvalidArgument)
			}
		}
	})
}

// checkFuzzResponse asserts a 200 body is a well-formed answer: each
// result no longer than its k, ordered by (rank, node id), ranks >= 1.
func checkFuzzResponse(t *testing.T, batch bool, body []byte) {
	t.Helper()
	var results []api.QueryResponse
	if batch {
		var br api.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatalf("bad batch body %q: %v", body, err)
		}
		results = br.Results
		if len(results) == 0 {
			t.Fatalf("empty batch answered 200: %q", body)
		}
	} else {
		var qr api.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("bad query body %q: %v", body, err)
		}
		results = []api.QueryResponse{qr}
	}
	for _, r := range results {
		if r.K < 1 || len(r.Entries) > r.K {
			t.Fatalf("k=%d with %d entries: %q", r.K, len(r.Entries), body)
		}
		for i, e := range r.Entries {
			if e.Rank < 1 {
				t.Fatalf("rank %d: %q", e.Rank, body)
			}
			if i > 0 {
				p := r.Entries[i-1]
				if p.Rank > e.Rank || (p.Rank == e.Rank && p.Node >= e.Node) {
					t.Fatalf("entries out of (rank, node) order: %q", body)
				}
			}
		}
	}
}

// FuzzMutateBodies feeds arbitrary /v1/mutate bodies to a fresh small
// live server. It must answer 200 with the generation one higher, or 4xx
// with the api error envelope; never 5xx, never a panic. What the request
// allocates stays within a budget linear in the body length: a batch may
// add at most MaxBatch vertices, however few bytes ask for more.
//
//	go test ./internal/server -run '^$' -fuzz '^FuzzMutateBodies$' -fuzztime 30s
func FuzzMutateBodies(f *testing.F) {
	for _, seed := range []string{
		`{"mutations":[{"op":"set_weight","u":0,"v":1,"weight":2}]}`,
		`{"mutations":[{"op":"insert_edge","u":3,"v":17,"weight":0.5},{"op":"delete_edge","u":3,"v":17}]}`,
		`{"mutations":[{"op":"add_vertex","count":2},{"op":"insert_edge","u":20,"v":21,"weight":1}]}`,
		`{"mutations":[{"op":"add_vertex","count":100000}]}`,
		`{"mutations":[{"op":"add_vertex","count":-1},{"op":"add_vertex","count":1023}]}`,
		`{"mutations":[{"op":"set_weight","u":-1,"v":99,"weight":-3}]}`,
		`{"mutations":[{"op":"bogus"}],"timeout_ms":-1}`,
		`{"mutations":[]}`,
		`{"mutations":[{"op":"add_vertex"}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		st, h := newLiveServer(t)
		before := st.Generation()
		rec := httptest.NewRecorder()
		used := allocated(func() {
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/mutate", bytes.NewReader([]byte(body))))
		})
		if budget := 1<<20 + 64*uint64(len(body)); used > budget {
			t.Fatalf("a %d-byte body allocated %d bytes, budget %d", len(body), used, budget)
		}
		switch {
		case rec.Code == http.StatusOK:
			var resp api.MutateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Generation != before+1 {
				t.Fatalf("200 with generation %d after %d: %q", resp.Generation, before, rec.Body)
			}
		case rec.Code >= 400 && rec.Code < 500:
			var e api.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code == "" {
				t.Fatalf("status %d without the error envelope: %q", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
	})
}

// allocated returns the heap bytes allocated while run ran, read from
// runtime/metrics rather than the stop-the-world runtime.ReadMemStats.
func allocated(run func()) uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	before := s[0].Value.Uint64()
	run()
	rtmetrics.Read(s)
	return s[0].Value.Uint64() - before
}
