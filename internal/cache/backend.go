package cache

import (
	"context"
	"errors"
	"fmt"

	"rkranks/internal/core"
	"rkranks/internal/obs"
)

// Target is what a Backend decorates: the query surface of the
// server.Backend contract, satisfied by core.Pool and
// cluster.Coordinator. The package deliberately re-declares the method
// set instead of importing internal/server, so the dependency arrow
// stays cache -> core and the server can probe a cache through the same
// interface assertions it uses for clusters.
type Target interface {
	QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error)
	QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error)
	Size() int
	Indexed() bool
}

// generationer is the optional answer-set-generation probe (core.Pool,
// cluster.Coordinator). A target without one is permanently generation 0,
// which is correct for backends whose answers can never be invalidated.
type generationer interface {
	Generation() uint64
}

// Backend decorates a Target with the response cache and singleflight
// coalescing. It satisfies server.Backend, so it drops between an HTTP
// server and its pool or coordinator unchanged:
//
//	cached, _ := cache.NewBackend(pool, cache.Config{MaxBytes: 64 << 20})
//	server.New(server.Config{Backend: cached, Graph: g})
//
// Cached results are shared: callers must treat Result.Entries as
// immutable (every current caller — the HTTP encoder, the cluster merge
// — only reads them).
type Backend struct {
	inner Target
	gen   generationer // nil when the target has no generation
	cache *Cache
}

// NewBackend wraps inner with a response cache of cfg's budget.
func NewBackend(inner Target, cfg Config) (*Backend, error) {
	if inner == nil {
		return nil, fmt.Errorf("cache: NewBackend requires a target backend")
	}
	if cfg.MaxBytes <= 0 {
		return nil, fmt.Errorf("cache: Config.MaxBytes must be > 0, got %d", cfg.MaxBytes)
	}
	b := &Backend{inner: inner, cache: New(cfg)}
	if gp, ok := inner.(generationer); ok {
		b.gen = gp
	}
	return b, nil
}

// Size implements server.Backend.
func (b *Backend) Size() int { return b.inner.Size() }

// Indexed implements server.Backend.
func (b *Backend) Indexed() bool { return b.inner.Indexed() }

// Unwrap exposes the decorated backend, so servers can probe the chain
// for capabilities the cache does not re-implement (shard counts,
// generations).
func (b *Backend) Unwrap() any { return b.inner }

// Cache exposes the underlying store (tests, direct invalidation).
func (b *Backend) Cache() *Cache { return b.cache }

// CacheBytes and CacheEntries are the gauge probes behind the
// rkranks_cache_bytes / rkranks_cache_entries metrics: the server finds
// them through the Unwrap chain and registers sampling sources, so the
// cache itself never touches the registry.
func (b *Backend) CacheBytes() int64 { return b.cache.Stats().Bytes }

// CacheEntries reports the current entry count (see CacheBytes).
func (b *Backend) CacheEntries() int64 { return b.cache.Stats().Entries }

// generation reads the target's current answer-set generation.
func (b *Backend) generation() uint64 {
	if b.gen == nil {
		return 0
	}
	return b.gen.Generation()
}

// cacheable reports whether a completed flight outcome may be stored: a
// successful, complete (non-Partial) result. Degraded cluster answers
// are served to their waiters but never cached — the missing shard's
// candidates would otherwise stay missing long after the shard healed.
func cacheable(res *core.Result, err error) bool {
	return err == nil && res != nil && !res.Partial
}

// staleFlight reports that a joined flight failed with a cancellation
// that was not ours: every earlier waiter abandoned it (canceling the
// group context) in the window before it left the registry. The caller
// should retry — it can only have joined as a follower, so as the
// retry's leader it holds a live ticket and cannot see the same
// spurious cancellation again (termination). Deadline errors are NOT
// stale: group contexts carry no deadline, so those are real backend
// outcomes (e.g. a shard's own server-side timeout) that a retry would
// just repeat.
func staleFlight(err error, ctx context.Context) bool {
	return err != nil && errors.Is(err, context.Canceled) && ctx.Err() == nil
}

// QueryContext implements server.Backend: look aside, then either join
// the key's in-flight leader or become it. The leader consumes exactly
// one inner-backend permit no matter how many duplicates arrive while it
// runs.
func (b *Backend) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	if err := core.ValidateRequest(a, k); err != nil {
		return nil, err
	}
	kk := key{algo: a, q: q, mk: mergedK(ctx), k: k, gen: b.generation()}
	s := b.cache.shardFor(kk)

	// The lookup span covers the atomic hit-or-join-or-lead decision; the
	// flight span is always measured waiter-side (f.wait), never inside
	// the detached flight goroutine, so a recorder reading the trace after
	// the request cannot race a still-running abandoned flight.
	tr := obs.FromContext(ctx)
	sp := tr.Begin(obs.StageCacheLookup)

	s.mu.Lock()
	if e := s.lookup(kk); e != nil {
		s.mu.Unlock()
		b.cache.hits.Add(1)
		sp.SetAttr("hit", 1)
		tr.End(sp)
		return e.res, nil
	}
	if f := s.flights[kk]; f != nil {
		f.group.join()
		s.mu.Unlock()
		b.cache.coalesced.Add(1)
		sp.SetAttr("coalesced", 1)
		tr.End(sp)
		fsp := tr.Begin(obs.StageCacheFlight)
		res, err := f.wait(ctx)
		tr.End(fsp)
		if staleFlight(err, ctx) {
			// The flight died of abandonment (every earlier waiter left
			// and the group context was canceled) in the window before
			// finish removed it from the registry. Our caller is still
			// live, so run the query again rather than surfacing someone
			// else's cancellation.
			return b.QueryContext(ctx, a, q, k)
		}
		return res, err
	}
	grp := newGroup(ctx)
	f := newFlight(grp)
	grp.join() // the leader's own waiter ticket
	s.flights[kk] = f
	s.mu.Unlock()
	b.cache.misses.Add(1)
	sp.SetAttr("miss", 1)
	tr.End(sp)

	// The query itself runs detached from this caller: if the leader
	// walks away, followers still get the answer, and the engine permit
	// is released early only when every waiter is gone. The flight runs
	// on the group context (shared by every waiter), so the trace stays
	// out of it by construction.
	go func() {
		res, err := b.inner.QueryContext(grp.ctx, a, q, k)
		b.finish(s, kk, f, res, err)
		grp.cancel()
	}()
	fsp := tr.Begin(obs.StageCacheFlight)
	fsp.SetAttr("leader", 1)
	res, err := f.wait(ctx)
	tr.End(fsp)
	return res, err
}

// finish publishes one flight's outcome: removes it from the registry
// (no joiner can land on a completed flight), stores cacheable results,
// and wakes the waiters.
func (b *Backend) finish(s *shard, kk key, f *flight, res *core.Result, err error) {
	s.mu.Lock()
	delete(s.flights, kk)
	if cacheable(res, err) {
		b.cache.insert(s, kk, res)
	}
	s.mu.Unlock()
	f.complete(res, err)
}

// QueryManyContext implements the batch entry point. Hits answer from
// the store, duplicates (within the batch or against concurrent
// traffic) coalesce onto one flight, and the remaining fresh misses go
// to the inner backend as ONE QueryManyContext call — which a cluster
// coordinator serves with one RPC per shard, so caching composes with
// batch scatter instead of decomposing it.
func (b *Backend) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	if err := core.ValidateRequest(a, k); err != nil {
		return nil, err
	}
	gen := b.generation()
	mk := mergedK(ctx)
	results := make([]*core.Result, len(queries))

	// One lookup span covers the whole classification pass; per-query
	// spans would overflow the trace on large batches.
	tr := obs.FromContext(ctx)
	sp := tr.Begin(obs.StageCacheLookup)
	var nHits, nMisses, nCoalesced int64

	// Classification pass: every index resolves to a hit or a flight.
	grp := newGroup(ctx)
	byFlight := make(map[*flight][]int)
	local := make(map[key]*flight, len(queries)) // flights this batch already waits on
	var freshQueries []int32
	var freshKeys []key
	var freshFlights []*flight
	for i, q := range queries {
		kk := key{algo: a, q: q, mk: mk, k: k, gen: gen}
		if f, ok := local[kk]; ok {
			// Intra-batch duplicate: ride the flight this batch already
			// waits on instead of taking another ticket.
			b.cache.coalesced.Add(1)
			nCoalesced++
			byFlight[f] = append(byFlight[f], i)
			continue
		}
		s := b.cache.shardFor(kk)
		s.mu.Lock()
		if e := s.lookup(kk); e != nil {
			s.mu.Unlock()
			b.cache.hits.Add(1)
			nHits++
			results[i] = e.res
			continue
		}
		if f := s.flights[kk]; f != nil {
			f.group.join()
			s.mu.Unlock()
			b.cache.coalesced.Add(1)
			nCoalesced++
			local[kk] = f
			byFlight[f] = append(byFlight[f], i)
			continue
		}
		f := newFlight(grp)
		grp.join()
		s.flights[kk] = f
		s.mu.Unlock()
		b.cache.misses.Add(1)
		nMisses++
		local[kk] = f
		freshQueries = append(freshQueries, q)
		freshKeys = append(freshKeys, kk)
		freshFlights = append(freshFlights, f)
		byFlight[f] = append(byFlight[f], i)
	}
	sp.SetAttr("hits", nHits)
	sp.SetAttr("misses", nMisses)
	sp.SetAttr("coalesced", nCoalesced)
	tr.End(sp)

	if len(freshQueries) > 0 {
		go func() {
			rs, err := b.inner.QueryManyContext(grp.ctx, a, freshQueries, k)
			for j, f := range freshFlights {
				var res *core.Result
				if err == nil && j < len(rs) {
					res = rs[j]
				}
				b.finish(b.cache.shardFor(freshKeys[j]), freshKeys[j], f, res, err)
			}
			grp.cancel()
		}()
	} else {
		// No fresh flights: drop the unused group context.
		grp.cancel()
	}

	var firstErr error
	var retry []int // indices whose joined flight died of abandonment
	fsp := tr.Begin(obs.StageCacheFlight)
	fsp.SetAttr("flights", int64(len(byFlight)))
	for f, idxs := range byFlight {
		res, err := f.wait(ctx)
		if err != nil {
			if staleFlight(err, ctx) {
				retry = append(retry, idxs...)
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, i := range idxs {
			results[i] = res
		}
	}
	tr.End(fsp)
	if firstErr != nil {
		// Match Pool/Coordinator batch semantics: the first error fails
		// the batch.
		return nil, firstErr
	}
	if len(retry) > 0 {
		// Re-run the positions that joined flights abandoned by every
		// earlier waiter (see staleFlight); this batch is still live.
		qs := make([]int32, len(retry))
		for j, i := range retry {
			qs[j] = queries[i]
		}
		rs, err := b.QueryManyContext(ctx, a, qs, k)
		if err != nil {
			return nil, err
		}
		for j, i := range retry {
			results[i] = rs[j]
		}
	}
	return results, nil
}
