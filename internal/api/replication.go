package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"rkranks/internal/ridx"
)

// Index replication wire surface: a leader serves its dynamic index as
// a binary snapshot plus a JSON stream of refinement deltas, and
// followers inherit the learned state instead of re-deriving it. The
// types here are the single definition shared by the server handlers,
// the typed client, and the cluster's follower loop — no hand-rolled
// HTTP anywhere.

// Headers carried by /v1/index/snapshot responses. Values are base-10
// uint64. Like JSON field names, header names are wire protocol: add,
// never rename.
const (
	// HeaderIndexSeq is the delta cursor a follower should resume from
	// after absorbing the snapshot body.
	HeaderIndexSeq = "X-Index-Seq"
	// HeaderIndexGeneration is the leader's index generation at snapshot
	// time.
	HeaderIndexGeneration = "X-Index-Generation"
)

// IndexDelta operation names (IndexDelta.Op).
const (
	// DeltaOpOffer records Rank(U, V) = R in node V's reverse-rank list.
	DeltaOpOffer = "offer"
	// DeltaOpCheck raises node U's Check Dictionary bound to R.
	DeltaOpCheck = "check"
)

// IndexDelta is one replayable dictionary update (see ridx.Delta, which
// it mirrors field for field).
type IndexDelta struct {
	Op string `json:"op"`
	V  int32  `json:"v,omitempty"`
	U  int32  `json:"u"`
	R  int32  `json:"r"`
}

// DeltasOf converts logged index deltas to their wire form (the
// replication analogue of MutationOf).
func DeltasOf(ds []ridx.Delta) []IndexDelta {
	out := make([]IndexDelta, len(ds))
	for i, d := range ds {
		switch d.Op {
		case ridx.DeltaOffer:
			out[i] = IndexDelta{Op: DeltaOpOffer, V: d.V, U: d.U, R: d.R}
		case ridx.DeltaCheck:
			out[i] = IndexDelta{Op: DeltaOpCheck, U: d.U, R: d.R}
		}
	}
	return out
}

// DecodeDeltas converts wire deltas back to replayable form (the
// replication analogue of DecodeMutations).
func DecodeDeltas(ds []IndexDelta) ([]ridx.Delta, error) {
	out := make([]ridx.Delta, len(ds))
	for i, d := range ds {
		switch d.Op {
		case DeltaOpOffer:
			out[i] = ridx.Delta{Op: ridx.DeltaOffer, V: d.V, U: d.U, R: d.R}
		case DeltaOpCheck:
			out[i] = ridx.Delta{Op: ridx.DeltaCheck, U: d.U, R: d.R}
		default:
			return nil, fmt.Errorf("api: delta %d: unknown op %q", i, d.Op)
		}
	}
	return out, nil
}

// IndexDeltasResponse is the GET /v1/index/deltas?since=N document.
type IndexDeltasResponse struct {
	// Since echoes the request cursor; Next is the cursor for the next
	// poll. Next == Since means the follower is caught up.
	Since uint64 `json:"since"`
	Next  uint64 `json:"next"`
	// IndexGeneration is the leader's index generation. A follower that
	// sees it change must treat its local state as orphaned and re-sync
	// from a snapshot.
	IndexGeneration uint64 `json:"index_generation"`
	// SnapshotRequired reports that the leader's log no longer reaches
	// back to Since (truncation or invalidation): Deltas is empty and
	// the follower must re-fetch /v1/index/snapshot.
	SnapshotRequired bool         `json:"snapshot_required,omitempty"`
	Deltas           []IndexDelta `json:"deltas,omitempty"`
	RequestID        string       `json:"request_id,omitempty"`
}

// IndexSnapshot fetches the leader's index snapshot. The returned body
// streams the ridx on-disk format (parse with ridx.Read);
// the caller must close it. seq is the delta cursor to resume from and
// gen the leader's index generation at snapshot time.
func (c *Client) IndexSnapshot(ctx context.Context) (body io.ReadCloser, seq, gen uint64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/index/snapshot", nil)
	if err != nil {
		return nil, 0, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		defer drainClose(resp.Body)
		var e ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			e = ErrorBody{Code: CodeInternal, Message: "unreadable error body"}
		}
		return nil, 0, 0, &StatusError{Status: resp.StatusCode, Code: e.Code, Msg: e.Message}
	}
	seq, err = parseUintHeader(resp, HeaderIndexSeq)
	if err == nil {
		gen, err = parseUintHeader(resp, HeaderIndexGeneration)
	}
	if err != nil {
		drainClose(resp.Body)
		return nil, 0, 0, err
	}
	return resp.Body, seq, gen, nil
}

// IndexDeltas fetches up to max deltas from cursor since (max <= 0
// leaves the batch size to the server).
func (c *Client) IndexDeltas(ctx context.Context, since uint64, max int) (*IndexDeltasResponse, error) {
	url := fmt.Sprintf("%s/v1/index/deltas?since=%d", c.base, since)
	if max > 0 {
		url += fmt.Sprintf("&max=%d", max)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var e ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			e = ErrorBody{Code: CodeInternal, Message: "unreadable error body"}
		}
		return nil, &StatusError{Status: resp.StatusCode, Code: e.Code, Msg: e.Message}
	}
	var out IndexDeltasResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("api: bad /v1/index/deltas body: %w", err)
	}
	return &out, nil
}

func parseUintHeader(resp *http.Response, name string) (uint64, error) {
	v, err := strconv.ParseUint(resp.Header.Get(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("api: bad %s header %q", name, resp.Header.Get(name))
	}
	return v, nil
}
