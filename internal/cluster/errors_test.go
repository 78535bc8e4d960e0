package cluster

import (
	"errors"
	"net/http"
	"testing"
	"time"
)

// TestErrorHTTPStatus pins the status and error code every cluster error
// maps to: clients see them through the server's error envelope, and
// OverloadedError's Retry-After through its hint.
func TestErrorHTTPStatus(t *testing.T) {
	for _, tc := range []struct {
		err interface {
			error
			HTTPStatus() (int, string)
		}
		status int
		code   string
	}{
		{&ShardError{Shard: 1, Err: errors.New("down")}, http.StatusServiceUnavailable, "shard_unavailable"},
		{&OverloadedError{Shards: []int{0}, RetryAfter: time.Second}, http.StatusTooManyRequests, "overloaded"},
		{&GenerationSkewError{Query: 3, Generations: []uint64{1, 2}}, http.StatusServiceUnavailable, "generation_skew"},
		{&ImmutableShardError{Shard: 0}, http.StatusNotImplemented, "unimplemented"},
		{&GroupRegressedError{Serving: 1, HighWater: 2}, http.StatusServiceUnavailable, "group_regressed"},
		{&MutationError{Failed: map[int]error{2: errors.New("lost"), 0: errors.New("down")}}, http.StatusServiceUnavailable, "mutation_failed"},
	} {
		if status, code := tc.err.HTTPStatus(); status != tc.status || code != tc.code {
			t.Errorf("%T: HTTPStatus() = %d, %q; want %d, %q", tc.err, status, code, tc.status, tc.code)
		}
		if tc.err.Error() == "" {
			t.Errorf("%T: empty message", tc.err)
		}
	}
	if !errors.Is(&ShardError{Shard: 0, Err: errors.New("down")}, ErrShardUnavailable) {
		t.Error("ShardError does not wrap ErrShardUnavailable")
	}
	oe := &OverloadedError{Shards: []int{0, 2}, RetryAfter: 7 * time.Second}
	if got := oe.RetryAfterHint(); got != 7*time.Second {
		t.Errorf("RetryAfterHint() = %v, want 7s", got)
	}
}
