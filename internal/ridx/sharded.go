package ridx

import (
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"rkranks/internal/rank"
)

// stripeCount is the number of lock stripes of a ShardedIndex. Nodes map
// to stripes by id, so concurrent queries touching different regions of
// the dictionary rarely contend. 256 stripes keep the fixed overhead of an
// index small (a few KB) while leaving collision probability negligible
// for any realistic goroutine count.
const stripeCount = 256

// ShardedIndex is the Index implementation: the Reverse Rank Dictionary
// is guarded by per-stripe mutexes (stripe = node id mod stripeCount) and
// the Check Dictionary by atomics.
//
// Entry lists are edited in place under their stripe's lock, and every
// read of a list takes the same lock: LookupRank scans it there, and
// Reverse copies it out, so the caller's copy stays intact while sibling
// queries keep writing. A full list shifts its tail out. A shorter list
// grows into spare capacity it already has, and otherwise moves to the
// smallest allocation one entry longer, so each list sits in the smallest
// allocation that holds its entries.
//
// Check bounds are monotone (they only grow), so RaiseCheck is a CAS loop
// and Check a plain atomic load. No lock covers both dictionaries; the one
// cross-dictionary invariant — Check(u) bounds only pairs without a
// recorded witness entry — is maintained by publication order instead:
// writers offer witness entries before raising the bound they justify, and
// readers applying a bound to a specific pair read Check before
// LookupRank (see the indexed engine's prune and applyRefineLog in core).
type ShardedIndex struct {
	maxK int
	hubs []int32
	// check is accessed only through atomic operations.
	check []int32
	// rrd[v] is guarded by mu[v%stripeCount].
	rrd [][]rank.Entry
	mu  [stripeCount]sync.Mutex
	gen atomic.Uint64
}

// NewSharded returns an empty index over n nodes supporting reverse
// k-ranks queries with k <= maxK.
func NewSharded(n, maxK int) *ShardedIndex {
	if maxK < 1 {
		panic("ridx: maxK must be >= 1")
	}
	return &ShardedIndex{
		maxK:  maxK,
		check: make([]int32, n),
		rrd:   make([][]rank.Entry, n),
	}
}

// stripe returns the lock guarding node v's entry list.
func (ix *ShardedIndex) stripe(v int32) *sync.Mutex {
	return &ix.mu[uint32(v)%stripeCount]
}

// MaxK returns the largest query k the index supports.
func (ix *ShardedIndex) MaxK() int { return ix.maxK }

// Hubs returns the hub nodes the index was built from.
func (ix *ShardedIndex) Hubs() []int32 { return ix.hubs }

// N returns the number of nodes covered.
func (ix *ShardedIndex) N() int { return len(ix.check) }

// Generation returns the answer-set generation (see Index.Generation).
func (ix *ShardedIndex) Generation() uint64 { return ix.gen.Load() }

// BumpGeneration advances the answer-set generation. Call it after an
// operation that could change what queries answer (an index swapped in
// from disk over live traffic, a wholesale invalidation); plain Offer /
// RaiseCheck refinement never requires one.
func (ix *ShardedIndex) BumpGeneration() { ix.gen.Add(1) }

// Invalidate clears both dictionaries and advances the generation (see
// Index.Invalidate). MaxK and the hub list are preserved: they describe
// the index's shape, not graph-dependent facts. Callers must hold an
// exclusive barrier over every engine sharing the index (the live store
// quiesces its pool first): the clear itself takes the stripe locks, but a
// concurrently running query could otherwise interleave stale
// pre-mutation facts back in between the clear and the barrier release.
func (ix *ShardedIndex) Invalidate() {
	for u := range ix.check {
		atomic.StoreInt32(&ix.check[u], 0)
	}
	ix.eachStripe(func(v int) { ix.rrd[v] = nil })
	ix.gen.Add(1)
}

// eachStripe calls f for every node, one stripe at a time with that
// stripe's lock held: one lock per stripe, not per node, keeps whole-index
// passes cheap on large graphs.
func (ix *ShardedIndex) eachStripe(f func(v int)) {
	for s := 0; s < stripeCount && s < len(ix.rrd); s++ {
		ix.mu[s].Lock()
		for v := s; v < len(ix.rrd); v += stripeCount {
			f(v)
		}
		ix.mu[s].Unlock()
	}
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

// Reverse appends a copy of v's reverse-rank list, ordered by
// (rank, node), to dst. The copy is taken under the stripe lock, so it
// stays intact (if stale) across concurrent Offer calls.
func (ix *ShardedIndex) Reverse(v int32, dst []rank.Entry) []rank.Entry {
	mu := ix.stripe(v)
	mu.Lock()
	dst = append(dst, ix.rrd[v]...)
	mu.Unlock()
	return dst
}

// LookupRank returns Rank(u, v) when the pair is recorded.
func (ix *ShardedIndex) LookupRank(v, u int32) (int32, bool) {
	mu := ix.stripe(v)
	mu.Lock()
	r, ok := lookupRank(ix.rrd[v], u)
	mu.Unlock()
	return r, ok
}

// Offer records Rank(u, v) = r in the Reverse Rank Dictionary of v,
// keeping only the best maxK entries ordered by (rank, node). Ranks are
// exact, so a re-offered pair is ignored. It reports whether the
// dictionary changed. The list is searched and edited in place in one
// hold of the stripe's lock (see the type docs).
func (ix *ShardedIndex) Offer(v, u, r int32) bool {
	mu := ix.stripe(v)
	mu.Lock()
	list := ix.rrd[v]
	pos, dup := offerPos(list, u, r)
	if dup || pos >= ix.maxK {
		mu.Unlock()
		return false
	}
	switch {
	case len(list) == ix.maxK:
		// The last entry falls off.
	case len(list) < cap(list):
		list = list[:len(list)+1]
	default:
		// The smallest allocation one entry longer. Allocations come in
		// size classes, so it may hold room for the next few entries.
		grown := slices.Grow([]rank.Entry(nil), len(list)+1)[:len(list)+1]
		copy(grown, list)
		list = grown
	}
	copy(list[pos+1:], list[pos:])
	list[pos] = rank.Entry{Node: u, Rank: r}
	ix.rrd[v] = list
	mu.Unlock()
	return true
}

// Entries returns the total number of reverse-rank entries stored. Under
// concurrent writes the count is a lower bound on the final total (each
// stripe is read atomically, but stripes are visited in sequence).
func (ix *ShardedIndex) Entries() int64 {
	var n int64
	ix.eachStripe(func(v int) { n += int64(len(ix.rrd[v])) })
	return n
}

// SizeBytes estimates the in-memory footprint of the index payload
// (dictionary entries and check bounds), mirroring the "Index Size"
// columns of Tables 6-9.
func (ix *ShardedIndex) SizeBytes() int64 {
	const entryBytes = 8 // int32 node + int32 rank
	n := int64(len(ix.check))
	return n*4 + ix.Entries()*entryBytes + n*24
}

// Snapshot returns a deep copy of the current state. Under concurrent
// writes each dictionary slot is internally consistent (exact facts only),
// though slots may be captured at slightly different times.
func (ix *ShardedIndex) Snapshot() *Snapshot {
	cp := &Snapshot{
		maxK:  ix.maxK,
		hubs:  append([]int32(nil), ix.hubs...),
		check: make([]int32, len(ix.check)),
		rrd:   make([][]rank.Entry, len(ix.rrd)),
	}
	for u := range ix.check {
		cp.check[u] = atomic.LoadInt32(&ix.check[u])
	}
	ix.eachStripe(func(v int) {
		if list := ix.rrd[v]; len(list) > 0 {
			cp.rrd[v] = append([]rank.Entry(nil), list...)
		}
	})
	return cp
}

// Write serializes a consistent snapshot of the index.
func (ix *ShardedIndex) Write(w io.Writer) error {
	return ix.Snapshot().Write(w)
}
