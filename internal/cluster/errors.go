package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"rkranks/internal/api"
)

// ErrShardUnavailable is the root of every shard-availability error: a
// backend that cannot be reached, keeps failing, or is tripped by the
// coordinator's health tracking. Under Config.StrictConsistency the
// coordinator surfaces it for the whole query (internal/server maps it to
// 503); in degraded mode it is only returned when NO shard could answer.
var ErrShardUnavailable = errors.New("cluster: shard unavailable")

// ShardError reports a failure of one shard backend, wrapping
// ErrShardUnavailable for errors.Is dispatch.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d unavailable: %v", e.Shard, e.Err)
}

func (e *ShardError) Unwrap() error { return ErrShardUnavailable }

// HTTPStatus implements the server error-mapping probe: a query refused
// for shard unavailability is a 503, like a draining server — the load
// balancer should try a replica.
func (e *ShardError) HTTPStatus() (int, string) {
	return http.StatusServiceUnavailable, "shard_unavailable"
}

// OverloadedError reports that one or more shards shed the query with
// 429. RetryAfter is the MAXIMUM hint across the overloaded shards: the
// query cannot succeed until the slowest-recovering shard admits again,
// so the coordinator must not substitute its own (shorter) queue
// estimate.
type OverloadedError struct {
	// Shards lists the overloaded shard ids.
	Shards []int
	// RetryAfter is the largest Retry-After any overloaded shard sent.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("cluster: shards %v overloaded (retry after %v)", e.Shards, e.RetryAfter)
}

// HTTPStatus implements the server error-mapping probe.
func (e *OverloadedError) HTTPStatus() (int, string) {
	return http.StatusTooManyRequests, "overloaded"
}

// RetryAfterHint implements the server Retry-After probe.
func (e *OverloadedError) RetryAfterHint() time.Duration { return e.RetryAfter }

// GenerationSkewError reports a merge the coordinator refused because
// shard answers carried different graph generations: a mutation batch was
// landing while the query scattered, and a result merged across two
// generations would be silently wrong. The coordinator retries the whole
// scatter a few times before surfacing this; by then the skew is real
// (e.g. a mutation fan-out partially failed), and the caller should retry
// once the shards converge.
type GenerationSkewError struct {
	// Query is the query node whose merge was refused.
	Query int32
	// Generations is the distinct generation stamps observed (ascending).
	Generations []uint64
}

func (e *GenerationSkewError) Error() string {
	return fmt.Sprintf("cluster: query %d observed shards on graph generations %v mid-mutation; retry", e.Query, e.Generations)
}

// HTTPStatus implements the server error-mapping probe: skew is a
// transient consistency refusal, 503 like an unavailable shard.
func (e *GenerationSkewError) HTTPStatus() (int, string) {
	return http.StatusServiceUnavailable, api.CodeGenerationSkew
}

// ImmutableShardError reports a mutation fanned to a shard backend that
// cannot apply it (a core.Pool or a remote rkserve booted without -live).
type ImmutableShardError struct {
	Shard int
}

func (e *ImmutableShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d serves an immutable graph; mutations need every shard live-enabled", e.Shard)
}

// HTTPStatus implements the server error-mapping probe.
func (e *ImmutableShardError) HTTPStatus() (int, string) {
	return http.StatusNotImplemented, api.CodeUnimplemented
}

// isImmutableShard reports an ImmutableShardError anywhere in err's
// chain (a replica group surfaces one when its members are immutable).
func isImmutableShard(err error) bool {
	var ise *ImmutableShardError
	return errors.As(err, &ise)
}

// GroupRegressedError reports a mutation batch refused by a replica
// group whose serving generation regressed below its high-water
// generation: every replica holding the newest logged batches is out of
// rotation, so accepting a new batch would mint a generation number the
// batch log already holds with DIFFERENT content — and once the
// up-to-date replica recovers, replicas with divergent graphs would
// report identical generations, silently breaking byte-identical
// answers and cache keying. The group heals itself (catch-up replay
// from the batch log, or the up-to-date replica's recovery probe);
// callers should retry.
type GroupRegressedError struct {
	// Serving is the group's current (regressed) serving generation.
	Serving uint64
	// HighWater is the newest generation the group ever observed or
	// logged.
	HighWater uint64
}

func (e *GroupRegressedError) Error() string {
	return fmt.Sprintf("cluster: replica group serving generation %d regressed below high-water %d; mutations refused until the group re-converges", e.Serving, e.HighWater)
}

// HTTPStatus implements the server error-mapping probe: a transient
// availability refusal, 503 like a failed mutation fan-out.
func (e *GroupRegressedError) HTTPStatus() (int, string) {
	return http.StatusServiceUnavailable, "group_regressed"
}

// MutationError reports a mutation batch that failed on one or more
// shards after the coordinator's retry. The cluster's shard generations
// may now be skewed: queries refuse to merge across generations (see
// GenerationSkewError), so the cluster stays correct but degraded until
// the failed shards recover or are re-fed the batch.
type MutationError struct {
	// Failed maps shard id to its final error.
	Failed map[int]error
}

func (e *MutationError) Error() string {
	ids := make([]int, 0, len(e.Failed))
	for i := range e.Failed {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	var first error
	if len(ids) > 0 {
		first = e.Failed[ids[0]]
	}
	return fmt.Sprintf("cluster: mutation batch failed on shards %v (first: %v); shard generations may be skewed until they recover", ids, first)
}

// HTTPStatus implements the server error-mapping probe: like a shard
// availability failure, the caller should retry against a converged
// cluster.
func (e *MutationError) HTTPStatus() (int, string) {
	return http.StatusServiceUnavailable, "mutation_failed"
}
