package ridx

import (
	"io"
	"sync"
	"sync/atomic"

	"rkranks/internal/graph"
	"rkranks/internal/rank"
)

// stripeCount is the number of lock stripes of a ShardedIndex. Nodes map
// to stripes by id, so concurrent queries touching different regions of
// the dictionary rarely contend. 256 stripes keep the fixed overhead of an
// index small (a few KB) while leaving collision probability negligible
// for any realistic goroutine count.
const stripeCount = 256

// ShardedIndex is the concurrency-safe Index implementation: the Reverse
// Rank Dictionary is guarded by per-stripe RWMutexes (stripe = node id mod
// stripeCount) and the Check Dictionary by atomics.
//
// Entry lists are copy-on-write: Offer publishes a freshly allocated list
// under the stripe's write lock and never mutates a published one, so the
// slice Reverse returns is an immutable snapshot the caller may hold
// across further index updates — exactly what the indexed engine needs
// when it seeds a query's result heap while sibling queries keep writing.
//
// Check bounds are monotone (they only grow), so RaiseCheck is a CAS loop
// and Check a plain atomic load. No lock covers both dictionaries; the one
// cross-dictionary invariant — Check(u) bounds only pairs without a
// recorded witness entry — is maintained by publication order instead:
// writers offer witness entries before raising the bound they justify, and
// readers applying a bound to a specific pair read Check before Reverse
// (see Engine.refine and the indexed engine's candidate loop in core).
type ShardedIndex struct {
	maxK int
	hubs []int32
	// check is accessed only through atomic operations.
	check []int32
	// rrd[v] is guarded by mu[v%stripeCount]; published lists are
	// immutable.
	rrd [][]rank.Entry
	mu  [stripeCount]sync.RWMutex
	gen atomic.Uint64
}

// NewSharded returns an empty concurrency-safe index over n nodes
// supporting reverse k-ranks queries with k <= maxK.
func NewSharded(n, maxK int) *ShardedIndex {
	if maxK < 1 {
		panic("ridx: maxK must be >= 1")
	}
	return newSharded(n, maxK)
}

func newSharded(n, maxK int) *ShardedIndex {
	return &ShardedIndex{
		maxK:  maxK,
		check: make([]int32, n),
		rrd:   make([][]rank.Entry, n),
	}
}

// BuildSharded precomputes a concurrency-safe index with worker goroutines
// (workers <= 0 uses GOMAXPROCS): BuildParallel's index, handed to Sharded.
// Its dictionaries are identical to a serial Build's.
func BuildSharded(g *graph.Graph, p BuildParams, workers int) (*ShardedIndex, error) {
	ix, err := BuildParallel(g, p, workers)
	if err != nil {
		return nil, err
	}
	return ix.Sharded(), nil
}

// stripe returns the lock guarding node v's entry list.
func (ix *ShardedIndex) stripe(v int32) *sync.RWMutex {
	return &ix.mu[uint32(v)%stripeCount]
}

// MaxK returns the largest query k the index supports.
func (ix *ShardedIndex) MaxK() int { return ix.maxK }

// Hubs returns the hub nodes the index was built from.
func (ix *ShardedIndex) Hubs() []int32 { return ix.hubs }

// N returns the number of nodes covered.
func (ix *ShardedIndex) N() int { return len(ix.check) }

// Concurrent reports that a ShardedIndex may be shared freely between
// goroutines.
func (ix *ShardedIndex) Concurrent() bool { return true }

// Generation returns the answer-set generation (see Index.Generation).
func (ix *ShardedIndex) Generation() uint64 { return ix.gen.Load() }

// BumpGeneration advances the answer-set generation. Call it after an
// operation that could change what queries answer (an index swapped in
// from disk over live traffic, a wholesale invalidation); plain Offer /
// RaiseCheck refinement never requires one.
func (ix *ShardedIndex) BumpGeneration() { ix.gen.Add(1) }

// Invalidate clears both dictionaries and advances the generation (see
// Index.Invalidate). Callers must hold an exclusive barrier over every
// engine sharing the index (the live store quiesces its pool first): the
// clear itself takes the stripe locks, but a concurrently running query
// could otherwise interleave stale pre-mutation facts back in between the
// clear and the barrier release.
func (ix *ShardedIndex) Invalidate() {
	for u := range ix.check {
		atomic.StoreInt32(&ix.check[u], 0)
	}
	for s := 0; s < stripeCount && s < len(ix.rrd); s++ {
		ix.mu[s].Lock()
		for v := s; v < len(ix.rrd); v += stripeCount {
			ix.rrd[v] = nil
		}
		ix.mu[s].Unlock()
	}
	ix.gen.Add(1)
}

// Check returns the Check Dictionary bound for u. The bound is certified
// at the moment of the load; it can only grow afterwards, so acting on a
// stale value is safe (just less sharp).
func (ix *ShardedIndex) Check(u int32) int32 {
	return atomic.LoadInt32(&ix.check[u])
}

// RaiseCheck raises the Check Dictionary bound for u; bounds only grow.
// Concurrent raises settle on the maximum.
func (ix *ShardedIndex) RaiseCheck(u, bound int32) {
	for {
		cur := atomic.LoadInt32(&ix.check[u])
		if bound <= cur {
			return
		}
		if atomic.CompareAndSwapInt32(&ix.check[u], cur, bound) {
			return
		}
	}
}

// Reverse returns the stored reverse-rank list of v, ordered by
// (rank, node). The returned slice is an immutable snapshot: it stays
// valid (but may become stale) across concurrent Offer calls.
func (ix *ShardedIndex) Reverse(v int32) []rank.Entry {
	mu := ix.stripe(v)
	mu.RLock()
	list := ix.rrd[v]
	mu.RUnlock()
	return list
}

// LookupRank returns Rank(u, v) when the pair is recorded.
func (ix *ShardedIndex) LookupRank(v, u int32) (int32, bool) {
	return lookupRank(ix.Reverse(v), u)
}

// Offer records Rank(u, v) = r in the Reverse Rank Dictionary of v (see
// SerialIndex.Offer). The new list is published copy-on-write under the
// stripe's write lock. Re-offers of recorded pairs — the steady state of
// a warmed-up serving pool, since every refinement re-offers its settled
// nodes — are rejected under the shared read lock so they never block
// concurrent readers. The rejection stays valid at the write lock: lists
// only improve, so an insertion position past maxK can only move further
// out, and a recorded (u, rank) pair never changes (ranks are exact).
func (ix *ShardedIndex) Offer(v, u, r int32) bool {
	mu := ix.stripe(v)
	mu.RLock()
	pos, dup := offerPos(ix.rrd[v], u, r)
	mu.RUnlock()
	if dup || pos >= ix.maxK {
		return false
	}
	mu.Lock()
	list, changed := offerToList(ix.rrd[v], u, r, ix.maxK, false)
	if changed {
		ix.rrd[v] = list
	}
	mu.Unlock()
	return changed
}

// Entries returns the total number of reverse-rank entries stored. Under
// concurrent writes the count is a lower bound on the final total (each
// stripe is read atomically, but stripes are visited in sequence).
func (ix *ShardedIndex) Entries() int64 {
	var n int64
	for s := 0; s < stripeCount && s < len(ix.rrd); s++ {
		ix.mu[s].RLock()
		for v := s; v < len(ix.rrd); v += stripeCount {
			n += int64(len(ix.rrd[v]))
		}
		ix.mu[s].RUnlock()
	}
	return n
}

// SizeBytes estimates the in-memory footprint of the index payload.
func (ix *ShardedIndex) SizeBytes() int64 {
	return sizeBytes(int64(len(ix.check)), ix.Entries())
}

// Snapshot returns a SerialIndex copy of the current state. Under
// concurrent writes each dictionary slot is internally consistent (exact
// facts only), though slots may be captured at slightly different times.
func (ix *ShardedIndex) Snapshot() *SerialIndex {
	cp := &SerialIndex{
		maxK:  ix.maxK,
		hubs:  append([]int32(nil), ix.hubs...),
		check: make([]int32, len(ix.check)),
		rrd:   make([][]rank.Entry, len(ix.rrd)),
	}
	for u := range ix.check {
		cp.check[u] = atomic.LoadInt32(&ix.check[u])
	}
	// Published lists are immutable, but the serial copy mutates its lists
	// in place, so each list is deep-copied rather than shared. One RLock
	// per stripe (not per node) keeps the pass cheap on large graphs.
	for s := 0; s < stripeCount && s < len(ix.rrd); s++ {
		ix.mu[s].RLock()
		for v := s; v < len(ix.rrd); v += stripeCount {
			if list := ix.rrd[v]; len(list) > 0 {
				cp.rrd[v] = append([]rank.Entry(nil), list...)
			}
		}
		ix.mu[s].RUnlock()
	}
	return cp
}

// Write serializes a consistent snapshot of the index in the shared
// on-disk format.
func (ix *ShardedIndex) Write(w io.Writer) error {
	snap := ix.Snapshot()
	return snap.Write(w)
}
