package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
)

func TestPoolMatchesSerialEngine(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 200, AttachPerNode: 4, Seed: 3})
	pool := NewPool(g, Options{}, 4)
	if pool.Size() != 4 {
		t.Fatalf("Size = %d", pool.Size())
	}
	serial := NewEngine(g, Options{})

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for q := int32(0); q < 64; q++ {
		wg.Add(1)
		go func(q int32) {
			defer wg.Done()
			res, err := pool.Query(Dynamic, q, 5)
			if err != nil {
				errs <- err
				return
			}
			want, err := serialResult(serial, q)
			if err != nil {
				errs <- err
				return
			}
			if fmt.Sprint(res.Entries) != want {
				errs <- fmt.Errorf("q=%d: %v != %s", q, res.Entries, want)
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

var serialMu sync.Mutex

func serialResult(e *Engine, q int32) (string, error) {
	serialMu.Lock()
	defer serialMu.Unlock()
	res, err := e.Query(Dynamic, q, 5)
	if err != nil {
		return "", err
	}
	return fmt.Sprint(res.Entries), nil
}

func TestPoolRejectsIndexedWithoutIndex(t *testing.T) {
	g := gen.GNM(20, 40, false, 1)
	pool := NewPool(g, Options{}, 2)
	if _, err := pool.Query(Indexed, 0, 2); err == nil {
		t.Error("index-free pool accepted an Indexed query")
	}
}

func TestNewPoolWithIndexValidation(t *testing.T) {
	g := gen.GNM(20, 40, false, 1)
	if _, err := NewPoolWithIndex(g, Options{}, 2, nil); err == nil {
		t.Error("pool accepted a nil index")
	}
	var typedNil *ridx.ShardedIndex
	if _, err := NewPoolWithIndex(g, Options{}, 2, typedNil); err == nil {
		t.Error("pool accepted a typed-nil sharded index")
	}
	other := gen.GNM(10, 20, false, 2)
	wrong, err := ridx.BuildSharded(other, ridx.BuildParams{Hubs: []int32{0}, M: 3, K: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPoolWithIndex(g, Options{}, 2, wrong); err == nil {
		t.Error("pool accepted an index over a different graph")
	}
	ok, err := ridx.Build(g, ridx.BuildParams{Hubs: []int32{0, 1}, M: 5, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPoolWithIndex(g, Options{}, 2, ok)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Index() != ridx.Index(ok) {
		t.Error("pool does not expose the shared index")
	}
}

// TestPoolIndexedMatchesSerial issues the same Indexed query stream twice:
// concurrently through a pool sharing one ShardedIndex, and serially on a
// dedicated engine with its own copy of the seed index. Results are exact
// and deterministically tie-broken, so the entry sets must agree even
// though the shared index evolves under a racy interleaving. Run with
// -race this is the concurrency proof for pooled Indexed queries.
func TestPoolIndexedMatchesSerial(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 300, AttachPerNode: 4, Seed: 11})
	params := ridx.BuildParams{Hubs: []int32{0, 7, 19, 42, 63, 99}, M: 60, K: 6}
	seed, err := ridx.Build(g, params)
	if err != nil {
		t.Fatal(err)
	}
	shared := seed.Snapshot().Sharded()
	pool, err := NewPoolWithIndex(g, Options{}, 8, shared)
	if err != nil {
		t.Fatal(err)
	}

	queries := make([]int32, 96)
	for i := range queries {
		queries[i] = int32((i * 17) % g.N())
	}

	serialEng := NewEngine(g, Options{})
	serialEng.SetIndex(seed)
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := serialEng.Query(Indexed, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(res.Entries)
	}

	// >= 8 goroutines hammer the pool concurrently (one per query, bounded
	// inside by the 8 pooled engines).
	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q int32) {
			defer wg.Done()
			res, err := pool.Query(Indexed, q, 5)
			if err != nil {
				errs <- err
				return
			}
			if got := fmt.Sprint(res.Entries); got != want[i] {
				errs <- fmt.Errorf("q=%d: concurrent %s != serial %s", q, got, want[i])
			}
		}(i, q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The shared index must have learned from the traffic (dynamic
	// refinement is the point of pooling Indexed queries).
	if shared.Entries() < seed.Entries() {
		t.Errorf("shared index shrank: %d < %d", shared.Entries(), seed.Entries())
	}

	// QueryMany over the same stream, exercising the bounded-worker path.
	results, err := pool.QueryMany(Indexed, queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if got := fmt.Sprint(res.Entries); got != want[i] {
			t.Errorf("QueryMany q=%d: %s != %s", queries[i], got, want[i])
		}
	}
}

// TestQueryManyBoundedWorkers: a batch much larger than the pool must not
// spawn a goroutine per query.
func TestQueryManyBoundedWorkers(t *testing.T) {
	g := gen.GNM(40, 120, false, 5)
	pool := NewPool(g, Options{}, 2)
	queries := make([]int32, 5000)
	for i := range queries {
		queries[i] = int32(i % g.N())
	}
	before := runtime.NumGoroutine()
	results, err := pool.QueryMany(Dynamic, queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("results = %d", len(results))
	}
	// NumGoroutine is sampled after Wait, so this is a smoke check that
	// nothing leaked rather than a strict concurrency bound.
	if after := runtime.NumGoroutine(); after > before+pool.Size() {
		t.Errorf("goroutines leaked: %d -> %d", before, after)
	}
	for i, res := range results {
		if res == nil || res.Query != queries[i] {
			t.Fatalf("result %d = %v, want query %d", i, res, queries[i])
		}
	}
}

func TestPoolDefaultSize(t *testing.T) {
	g := gen.GNM(10, 20, false, 1)
	pool := NewPool(g, Options{}, 0)
	if pool.Size() < 1 {
		t.Errorf("default size = %d", pool.Size())
	}
}

func TestQueryMany(t *testing.T) {
	g := gen.GNM(60, 180, false, 9)
	pool := NewPool(g, Options{}, 3)
	queries := []int32{5, 10, 15, 20, 25, 30}
	results, err := pool.QueryMany(Dynamic, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("results = %d", len(results))
	}
	for i, res := range results {
		if res.Query != queries[i] {
			t.Errorf("result %d is for query %d, want %d", i, res.Query, queries[i])
		}
		oracle := rank.BruteForceReverse(g, queries[i], 4)
		if len(res.Entries) != len(oracle) {
			t.Errorf("q=%d: size %d want %d", queries[i], len(res.Entries), len(oracle))
		}
	}
}

func TestQueryManyPropagatesError(t *testing.T) {
	g := gen.GNM(10, 20, false, 2)
	pool := NewPool(g, Options{}, 2)
	if _, err := pool.QueryMany(Dynamic, []int32{1, 99}, 2); err == nil {
		t.Error("out-of-range query did not error")
	}
}

// TestPoolPermitAccounting: the occupancy gauges track borrowed engines —
// the hook response-cache tests use to prove coalesced duplicates admit
// one permit.
func TestPoolPermitAccounting(t *testing.T) {
	g := gen.GNM(60, 180, false, 9)
	pool := NewPool(g, Options{}, 3)
	if pool.Occupancy() != 0 || pool.PeakOccupancy() != 0 {
		t.Fatalf("fresh pool occupancy = %d peak %d", pool.Occupancy(), pool.PeakOccupancy())
	}
	if _, err := pool.QueryMany(Dynamic, []int32{1, 2, 3, 4, 5, 6}, 3); err != nil {
		t.Fatal(err)
	}
	if got := pool.Occupancy(); got != 0 {
		t.Errorf("idle pool occupancy = %d, want 0", got)
	}
	peak := pool.PeakOccupancy()
	if peak < 1 || peak > 3 {
		t.Errorf("peak occupancy = %d, want within [1, pool size 3]", peak)
	}
}

// decorator wraps a backend the way the response cache does: it exposes
// the wrapped value through Unwrap and implements none of its methods.
type decorator struct{ inner any }

func (d decorator) Unwrap() any { return d.inner }

// TestProbeWalksDecorators: Probe finds a capability on the backend
// itself or behind any number of decorators, and reports a missing one.
func TestProbeWalksDecorators(t *testing.T) {
	p := NewPool(gen.GNM(10, 20, false, 1), Options{}, 1)
	type generationer interface{ Generation() uint64 }
	for _, b := range []any{p, decorator{p}, decorator{decorator{p}}} {
		got, ok := Probe[generationer](b)
		if !ok || got != generationer(p) {
			t.Errorf("Probe(%T) = %v, %v; want the pool", b, got, ok)
		}
	}
	if _, ok := Probe[interface{ Mutate() }](decorator{p}); ok {
		t.Error("Probe found a capability no layer implements")
	}
	if _, ok := Probe[generationer](nil); ok {
		t.Error("Probe(nil) reported a capability")
	}
}
