package server

import (
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"rkranks/internal/api"
	"rkranks/internal/obs"
)

// TestRequestIDEcho: a request carrying X-Request-Id gets the same ID on
// the response header and in the body; one without gets a generated ID.
func TestRequestIDEcho(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query",
		strings.NewReader(`{"algorithm":"dynamic","q":7,"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "stitch-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "stitch-me-42" {
		t.Errorf("response header X-Request-Id = %q, want the inbound ID", got)
	}
	var qr api.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.RequestID != "stitch-me-42" {
		t.Errorf("body request_id = %q, want the inbound ID", qr.RequestID)
	}

	resp2, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(`{"algorithm":"dynamic","q":7,"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	gen := resp2.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(gen) {
		t.Errorf("generated request ID %q, want 32 hex chars", gen)
	}
}

// TestRequestIDOnErrors: the error envelope carries the request ID too,
// so a 400 correlates with its access-log line.
func TestRequestIDOnErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query",
		strings.NewReader(`{"algorithm":"no-such-algo","q":7,"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "err-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var eb api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.RequestID != "err-trace-1" {
		t.Errorf("error envelope request_id = %q, want the inbound ID", eb.RequestID)
	}
}

// TestRequestzSpans: with a negative threshold every request is captured;
// the flight recorder's spans cover the request's stages and their
// durations fit inside the recorded total.
func TestRequestzSpans(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{SlowQueryThreshold: -1}, false)
	c := api.NewClient(ts.URL)
	if _, err := c.Query(context.Background(), "dynamic", 3, 8, 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/debug/requestz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.RecorderSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Slow) == 0 {
		t.Fatal("no slow records despite threshold <= 0")
	}
	rec := snap.Slow[0]
	if !rec.Slow {
		t.Errorf("record not marked slow: %+v", rec)
	}
	if rec.Route != "query" {
		t.Errorf("route = %q, want query", rec.Route)
	}
	if rec.RequestID == "" {
		t.Error("record has no request ID")
	}
	stages := map[string]bool{}
	var sum float64
	for _, sp := range rec.Spans {
		stages[sp.Stage] = true
		if sp.DurationMS < 0 {
			t.Errorf("span %s has negative duration %v", sp.Stage, sp.DurationMS)
		}
		sum += sp.DurationMS
	}
	if !stages["admission"] || !stages["engine.refine"] {
		t.Errorf("stages = %v, want admission and engine.refine", stages)
	}
	// Stages are sequential on a single node, so their durations must fit
	// within the recorded total (small slack: total is stamped after the
	// response body is written).
	if sum > rec.TotalMS+1 {
		t.Errorf("span durations sum to %.3fms, exceeding total %.3fms", sum, rec.TotalMS)
	}
	for _, sp := range rec.Spans {
		if want, ok := sp.Attrs["refinements"]; sp.Stage == "engine.refine" && (!ok || want == 0) {
			t.Errorf("engine span lost its decision counters: %+v", rec.Spans)
		}
	}
}

// TestRequestzCodecSpans: a /v1/query trace carries the request body's
// decode span before admission and the answer's encode span after the
// engine, so the codec's time is attributed rather than a gap.
func TestRequestzCodecSpans(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{SlowQueryThreshold: -1}, false)
	if _, err := api.NewClient(ts.URL).Query(context.Background(), "dynamic", 3, 8, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/debug/requestz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.RecorderSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Slow) != 1 {
		t.Fatalf("recorded %d requests, want the one query", len(snap.Slow))
	}
	var order []string
	for _, sp := range snap.Slow[0].Spans {
		order = append(order, sp.Stage)
	}
	if want := []string{"decode", "admission", "engine.refine", "encode"}; strings.Join(order, " ") != strings.Join(want, " ") {
		t.Errorf("spans %v, want %v", order, want)
	}
}

// TestMetricsEndpoint: /metrics is mounted by default and serves valid
// Prometheus text carrying the request counters and per-stage
// histograms.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)
	c := api.NewClient(ts.URL)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Query(ctx, "dynamic", int32(i), 5, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Batch(ctx, "dynamic", []int32{1, 2, 3}, 5, 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body := readAll(t, resp)
	for _, want := range []string{
		`rkranks_requests_total{route="query"} 2`,
		`rkranks_requests_total{route="batch"} 1`,
		`rkranks_queries_ok_total 5`,
		`rkranks_stage_duration_seconds_bucket{stage="engine.refine",le="+Inf"}`,
		`rkranks_stage_duration_seconds_bucket{stage="admission",le="+Inf"}`,
		`rkranks_request_duration_seconds_count{route="query"} 2`,
		`rkranks_in_flight_requests 0`,
		`rkranks_pool_size 4`,
		`rkranks_csr_bytes`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRequestDurationByRoute: the latency histograms are keyed by route
// class, so batch traffic never lands in the query route's series, and
// scraping /metrics is not itself counted as a request.
func TestRequestDurationByRoute(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, false)
	c := api.NewClient(ts.URL)
	ctx := context.Background()
	if _, err := c.Query(ctx, "dynamic", 3, 5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Batch(ctx, "dynamic", []int32{1, 2, 3, 4}, 5, 0); err != nil {
		t.Fatal(err)
	}
	scrape(t, ts.URL)
	m := scrape(t, ts.URL)
	for route, want := range map[string]float64{"query": 1, "batch": 1, "mutate": 0, "other": 0} {
		if got := m[`rkranks_request_duration_seconds_count{route="`+route+`"}`]; got != want {
			t.Errorf("%s route latency count = %v, want %v", route, got, want)
		}
	}
	var requests float64
	for _, route := range routeClasses {
		requests += m[`rkranks_requests_total{route="`+route+`"}`]
	}
	if requests != 2 {
		t.Errorf("requests counted = %v, want 2 (/metrics itself is uncounted)", requests)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
