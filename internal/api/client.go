package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/obs"
)

// Client is the typed HTTP client for the v1 wire protocol of rkserve and
// rkcluster instances: Query, Batch, Mutate, Health, and the index
// replication calls IndexSnapshot and IndexDeltas. It is promoted to the
// public surface as rkranks.Client; the rkbench load generator, the
// serving_http experiment, the cluster coordinator's remote shards, and
// the smoke tests all speak through it instead of hand-rolling requests.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for a server at base (e.g.
// "http://127.0.0.1:8080"). The underlying http.Client reuses
// connections; one Client is safe for concurrent use.
func NewClient(base string) *Client {
	return &Client{
		base: base,
		hc: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        512,
				MaxIdleConnsPerHost: 512,
				IdleConnTimeout:     30 * time.Second,
			},
		},
	}
}

// StatusError reports a non-2xx response, carrying the wire error code so
// callers can branch (e.g. count 429s separately under load).
type StatusError struct {
	Status int
	Code   string
	Msg    string
	// RetryAfter is the parsed Retry-After header of a 429/503 response
	// (zero when absent). A cluster coordinator propagates the maximum
	// across overloaded shards instead of inventing its own estimate.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("api: HTTP %d (%s): %s", e.Status, e.Code, e.Msg)
}

// Health fetches /healthz. It returns the decoded document even for a 503
// (draining) response, with the StatusError alongside. Counters live on
// /metrics, which Prometheus scrapes directly; the client has no call
// for it.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("api: bad /healthz body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		status, _ := doc["status"].(string)
		return doc, &StatusError{Status: resp.StatusCode, Code: status, Msg: "unhealthy"}
	}
	return doc, nil
}

// Query posts one reverse k-ranks query. algorithm may be empty (server
// default); timeout 0 uses the server default deadline. A merged k on ctx
// (core.WithMergedK) rides along as the request's merged_k.
func (c *Client) Query(ctx context.Context, algorithm Algorithm, q int32, k int, timeout time.Duration) (*QueryResponse, error) {
	body := QueryRequest{Algorithm: algorithm, Q: q, K: k, TimeoutMS: timeout.Milliseconds(), MergedK: core.MergedK(ctx)}
	var resp QueryResponse
	if err := c.post(ctx, "/v1/query", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Batch posts a multi-query request backed by Pool.QueryMany. Like
// Query, it sends the merged k ctx carries.
func (c *Client) Batch(ctx context.Context, algorithm Algorithm, queries []int32, k int, timeout time.Duration) (*BatchResponse, error) {
	body := BatchRequest{Algorithm: algorithm, Queries: queries, K: k, TimeoutMS: timeout.Milliseconds(), MergedK: core.MergedK(ctx)}
	var resp BatchResponse
	if err := c.post(ctx, "/v1/batch", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Mutate posts one atomic mutation batch to /v1/mutate. When it returns
// without error the batch is fully applied: the response carries the new
// graph generation and subsequent queries observe the mutated graph.
func (c *Client) Mutate(ctx context.Context, ms []graph.Mutation, timeout time.Duration) (*MutateResponse, error) {
	body := MutateRequest{Mutations: make([]Mutation, len(ms)), TimeoutMS: timeout.Milliseconds()}
	for i, m := range ms {
		body.Mutations[i] = MutationOf(m)
	}
	var resp MutateResponse
	if err := c.post(ctx, "/v1/mutate", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *Client) post(ctx context.Context, path string, body, dst any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the caller's request ID so a cluster coordinator's trace
	// stitches across its shard servers: the shard adopts the inbound ID
	// instead of generating its own, and both access logs share one key.
	if rid := obs.RequestIDFromContext(ctx); rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var e ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			e = ErrorBody{Code: CodeInternal, Message: "unreadable error body"}
		}
		se := &StatusError{Status: resp.StatusCode, Code: e.Code, Msg: e.Message}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		} else if e.RetryAfterSec > 0 {
			se.RetryAfter = time.Duration(e.RetryAfterSec) * time.Second
		}
		return se
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// drainClose empties and closes a response body so the transport can
// reuse the connection.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}
