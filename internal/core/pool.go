package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/ridx"
)

// Pool serves reverse k-ranks queries concurrently. Engines are not safe
// for concurrent use (they own per-query workspaces), so the pool keeps one
// engine per permit and hands them out to callers.
//
// The index-free algorithms (Naive, Static, Dynamic) only read the shared
// graph and are always poolable. Indexed queries additionally read and
// write their index — that is the point of the Section-5 dynamic index —
// so they are accepted only when the pool was built over an index
// (NewPoolWithIndex): all engines then share that one index, and every
// query's refinements make it better for the whole pool.
type Pool struct {
	engines chan *Engine
	g       *graph.Graph
	idx     ridx.Index  // shared index, nil for index-free pools
	labels  *hub.Labels // shared read-only hub labeling (Options.Labels), nil without one

	// Permit accounting: occupied counts engines currently borrowed, peak
	// is the high-water mark since construction. A response cache sitting
	// in front of the pool coalesces duplicate queries onto one leader, and
	// these gauges are how tests verify that N
	// concurrent duplicates really did admit a single engine permit.
	occupied atomic.Int64
	peak     atomic.Int64
}

// NewPool returns a pool of size engines over g (size <= 0 uses
// runtime.GOMAXPROCS(0)). The pool serves the index-free algorithms; use
// NewPoolWithIndex to serve Indexed queries too.
func NewPool(g *graph.Graph, opts Options, size int) *Pool {
	return newPool(g, opts, size, nil)
}

// NewPoolWithIndex returns a pool whose engines share ix, making Indexed
// the recommended algorithm for every query: concurrent queries all read
// the same dictionaries and feed their refinements back into them. Build
// the index with ridx.BuildSharded, or load one with ridx.Read and
// Snapshot.Sharded.
func NewPoolWithIndex(g *graph.Graph, opts Options, size int, ix ridx.Index) (*Pool, error) {
	// The type assertion also catches a typed-nil *ShardedIndex boxed in
	// the interface, which would pass the plain nil check and panic later.
	if sh, ok := ix.(*ridx.ShardedIndex); ix == nil || (ok && sh == nil) {
		return nil, fmt.Errorf("core: NewPoolWithIndex requires an index; use NewPool for index-free pools")
	}
	if ix.N() != g.N() {
		return nil, fmt.Errorf("core: index covers %d nodes, graph has %d", ix.N(), g.N())
	}
	return newPool(g, opts, size, ix), nil
}

func newPool(g *graph.Graph, opts Options, size int, ix ridx.Index) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{engines: make(chan *Engine, size), g: g, idx: ix, labels: opts.Labels}
	for i := 0; i < size; i++ {
		e := NewEngine(g, opts)
		if ix != nil {
			e.SetIndex(ix)
		}
		p.engines <- e
	}
	return p
}

// Size returns the number of engines in the pool.
func (p *Pool) Size() int { return cap(p.engines) }

// CSRBytes reports the memory footprint of the CSR views every engine in
// the pool traverses (they share the graph's one copy). The serving layer
// samples it as the rkranks_csr_bytes gauge.
func (p *Pool) CSRBytes() int64 { return p.g.CSRBytes() }

// Index returns the shared index, or nil for an index-free pool.
func (p *Pool) Index() ridx.Index { return p.idx }

// Indexed reports whether the pool serves Indexed queries (it was built
// with NewPoolWithIndex over a shared concurrency-safe index). It is the
// server.Backend capability probe, shared with cluster coordinators.
func (p *Pool) Indexed() bool { return p.idx != nil }

// HubLabeled reports whether the pool serves HubLabel queries (its engines
// were built with Options.Labels). Like Indexed, it is a serving-layer
// capability probe, shared with cluster coordinators.
func (p *Pool) HubLabeled() bool { return p.labels != nil }

// HubLabelBytes reports the memory footprint of the shared hub labeling,
// 0 without one. The serving layer samples it as rkranks_hub_label_bytes.
func (p *Pool) HubLabelBytes() int64 {
	if p.labels == nil {
		return 0
	}
	return p.labels.Bytes()
}

// Generation reports the pool's answer-set generation: the shared index's
// generation counter, or 0 for index-free pools. Response caches key
// entries on it so a bumped generation (an index swapped or invalidated
// wholesale) orphans every cached answer computed before the bump.
// Ordinary query refinements do NOT move it — dictionary updates are
// monotone exact facts that can never change a canonical result.
func (p *Pool) Generation() uint64 {
	if p.idx == nil {
		return 0
	}
	return p.idx.Generation()
}

// Quiesce takes every engine out of the pool and returns a release func
// that puts them back: an exclusive epoch barrier for writers that must
// mutate shared state (the graph's CSR arrays, the index's dictionaries)
// no query may be reading. It blocks until every in-flight query has
// returned its engine; queries arriving meanwhile block in their normal
// engine wait (respecting their contexts) until release. Readers pay
// nothing for the capability — their hot loops stay lock-free, and the
// engine channel they already go through is the barrier.
func (p *Pool) Quiesce() (release func()) {
	engines := make([]*Engine, cap(p.engines))
	for i := range engines {
		engines[i] = <-p.engines
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, e := range engines {
				p.engines <- e
			}
		})
	}
}

// Occupancy returns how many engines are currently borrowed.
func (p *Pool) Occupancy() int { return int(p.occupied.Load()) }

// PeakOccupancy returns the most engines ever borrowed at once.
func (p *Pool) PeakOccupancy() int { return int(p.peak.Load()) }

// acquire records an engine borrow; release returns it.
func (p *Pool) acquire() {
	n := p.occupied.Add(1)
	for {
		peak := p.peak.Load()
		if n <= peak || p.peak.CompareAndSwap(peak, n) {
			return
		}
	}
}

func (p *Pool) release() { p.occupied.Add(-1) }

// validate rejects malformed requests at the pool boundary — before an
// engine permit is consumed — with typed errors (errors.Is against
// ErrInvalidArgument and its refinements), so servers can map them to
// client-fault responses without string matching.
func (p *Pool) validate(a Algorithm, k int) error {
	if err := validateRequest(a, k); err != nil {
		return err
	}
	if a == Indexed && p.idx == nil {
		return fmt.Errorf("core: Indexed queries need a shared concurrency-safe index; build the pool with NewPoolWithIndex: %w", ErrIndexRequired)
	}
	if a == HubLabel && p.labels == nil {
		return fmt.Errorf("core: HubLabel queries need a hub labeling; build the pool with Options.Labels: %w", ErrLabelsRequired)
	}
	return nil
}

// Query borrows an engine, runs the query, and returns the engine to the
// pool. Safe for concurrent use.
func (p *Pool) Query(a Algorithm, q int32, k int) (*Result, error) {
	return p.QueryContext(context.Background(), a, q, k)
}

// QueryContext is Query with cancellation: waiting for a free engine and
// the query itself both respect ctx. A request that is invalid (unknown
// algorithm, k < 1, Indexed on an index-free pool) is rejected with a
// typed error before it can occupy an engine.
func (p *Pool) QueryContext(ctx context.Context, a Algorithm, q int32, k int) (*Result, error) {
	if err := p.validate(a, k); err != nil {
		return nil, err
	}
	var e *Engine
	select {
	case e = <-p.engines:
	default:
		select {
		case e = <-p.engines:
		case <-ctx.Done():
			return nil, fmt.Errorf("core: waiting for a pool engine: %w", ctx.Err())
		}
	}
	p.acquire()
	defer func() {
		p.release()
		p.engines <- e
	}()
	return e.QueryContext(ctx, a, q, k)
}

// QueryMany evaluates one query per element of queries concurrently and
// returns the results in input order. Concurrency is bounded by the pool
// size — workers pull queries from a shared counter, so a million-query
// batch costs pool-size goroutines, not a million. The first error (if
// any) is returned; remaining queries still run to completion.
func (p *Pool) QueryMany(a Algorithm, queries []int32, k int) ([]*Result, error) {
	return p.QueryManyContext(context.Background(), a, queries, k)
}

// QueryManyContext is QueryMany with cancellation. The batch is validated
// once up front (typed errors, nothing runs on a malformed request); after
// cancellation, queries not yet started are skipped and the context error
// is returned.
//
// Execution is engine-affine: each worker borrows one engine for its whole
// share of the batch (instead of per query) and brackets it with
// BeginBatch/EndBatch, so consecutive queries on that engine share
// refinement traversal work through the engine's arena (batchexec.go) and
// assemble results from chunked slabs. Results are byte-identical to the
// per-query path — replays reproduce serial refinements exactly — which is
// what lets a pool serving as a cluster shard inherit the sharing for free.
func (p *Pool) QueryManyContext(ctx context.Context, a Algorithm, queries []int32, k int) ([]*Result, error) {
	if err := p.validate(a, k); err != nil {
		return nil, err
	}
	results := make([]*Result, len(queries))
	workers := p.Size()
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var e *Engine
			select {
			case e = <-p.engines:
			default:
				select {
				case e = <-p.engines:
				case <-ctx.Done():
					setErr(fmt.Errorf("core: waiting for a pool engine: %w", ctx.Err()))
					return
				}
			}
			p.acquire()
			e.BeginBatch()
			defer func() {
				e.EndBatch()
				p.release()
				p.engines <- e
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				res, err := e.QueryContext(ctx, a, queries[i], k)
				if err != nil {
					setErr(err)
					if ctx.Err() != nil {
						return // canceled: stop pulling new queries
					}
					continue
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// FanOut evaluates query for every element of queries on at most workers
// goroutines (a shared-counter pull, so a million-element batch costs
// workers goroutines) and returns the results in input order. The first
// error is returned; remaining queries still run, except after ctx
// cancellation, when unstarted queries are skipped. It is the one batch
// fan-out loop behind Pool.QueryManyContext and the cluster coordinator's
// — the subtle parts (first-error capture, continue-on-error, cancel
// short-circuit) live here once.
func FanOut(ctx context.Context, workers int, queries []int32, query func(context.Context, int32) (*Result, error)) ([]*Result, error) {
	results := make([]*Result, len(queries))
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				res, err := query(ctx, queries[i])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					if ctx.Err() != nil {
						return // canceled: stop pulling new queries
					}
					continue
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// Probe asserts an optional capability against a backend, walking
// decorator chains (interface{ Unwrap() any }, as the response cache
// implements), so a cache around a pool, a live store or a cluster
// coordinator still answers its target's probes. The outermost
// implementation wins.
func Probe[T any](b any) (T, bool) {
	for b != nil {
		if t, ok := b.(T); ok {
			return t, true
		}
		u, ok := b.(interface{ Unwrap() any })
		if !ok {
			break
		}
		b = u.Unwrap()
	}
	var zero T
	return zero, false
}
