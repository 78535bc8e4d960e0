// Package cache is a look-aside response cache for reverse k-ranks
// backends: a sharded-LRU, byte-budgeted store of canonical query results
// with singleflight coalescing, wired as a composable decorator around
// anything that serves the server.Backend method set (a core.Pool or a
// cluster.Coordinator).
//
// # Why caching is safe here
//
// Results are canonical — the minimum k entries by (rank, node id),
// independent of engine, index state, pruning order, and shard layout
// (see core.Result) — so a cached answer for (algorithm, query node, k)
// is byte-identical to what the backend would recompute, even while a
// shared dynamic index keeps refining underneath: refinements are
// monotone exact facts that never change a canonical result. The one
// thing that CAN invalidate a cached answer is the backend's answer set
// being replaced wholesale (an index swapped in over live traffic), and
// that is what the generation component of the key guards: entries carry
// the generation they were computed under, a bump orphans them all, and
// the orphans age out of the LRU.
//
// # Coalescing
//
// Concurrent duplicate queries admit ONE backend permit: the first miss
// becomes the flight leader, every concurrent duplicate joins as a
// follower and waits on the leader's result. The flight runs on a
// reference-counted context detached from any single caller — a follower
// that cancels stops waiting immediately (its own context error), the
// flight is canceled only when EVERY waiter has walked away, and a
// leader whose caller gives up does not take its followers' answer down
// with it.
package cache

import (
	"context"
	"math"
	"sync"

	"rkranks/internal/core"
	"rkranks/internal/obs"
)

// defaultShards is the lock-shard count of the LRU: enough that
// concurrent lookups from a serving pool rarely contend, few enough that
// the per-shard byte budgets stay meaningful at small cache sizes.
const defaultShards = 16

// entryOverhead approximates the fixed per-entry footprint beyond the
// result entries themselves: key, list links, map bucket share, Result
// header and Stats block.
const entryOverhead = 256

// Config sizes a Cache.
type Config struct {
	// MaxBytes is the cache-wide byte budget (> 0). The budget is split
	// evenly across shards; a result too large for its shard's budget is
	// served but never stored.
	MaxBytes int64
	// Shards overrides the lock-shard count (0 = 16).
	Shards int
	// Metrics backs the cache counters with the shared instrument
	// catalog, so /metrics and the /statsz cache section read the same
	// storage. Nil uses standalone (unregistered) instruments.
	Metrics *obs.Metrics
}

// key identifies one cacheable response. Generation is the backend's
// answer-set generation at lookup time: entries written under an older
// generation can never be returned again (their key no longer occurs).
// mk is the merged k of a cluster shard call (core.WithMergedK), 0 for
// none: a merged-k answer may be shorter than the canonical one, so the
// two must never stand in for each other. It fills q's padding word.
type key struct {
	algo core.Algorithm
	q    int32
	mk   int32
	k    int
	gen  uint64
}

// mergedK reads ctx's merged k for a key, saturated to int32: every
// merged k at or above the node count answers alike (node ids are int32),
// and every negative one is refused alike.
func mergedK(ctx context.Context) int32 {
	return int32(max(math.MinInt32, min(core.MergedK(ctx), math.MaxInt32)))
}

// entry is one cached result on its shard's LRU list.
type entry struct {
	key        key
	res        *core.Result
	size       int64
	prev, next *entry
}

// shard is one lock stripe: an LRU map plus the in-flight registry for
// the keys that hash here. One mutex guards both so the
// lookup-or-join-or-lead decision is atomic.
type shard struct {
	mu       sync.Mutex
	entries  map[key]*entry
	flights  map[key]*flight
	head     *entry // most recently used
	tail     *entry // next eviction victim
	bytes    int64
	maxBytes int64
}

// Cache is the sharded LRU store. Create with New; most callers want the
// NewBackend decorator instead of using the store directly.
type Cache struct {
	shards []*shard

	// Counters are obs instruments (possibly registered on a /metrics
	// registry); Stats reads them back, so the two surfaces are one.
	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	inserts   *obs.Counter
	evictions *obs.Counter
}

// New returns an empty cache with cfg's byte budget.
func New(cfg Config) *Cache {
	n := cfg.Shards
	if n <= 0 {
		n = defaultShards
	}
	perShard := cfg.MaxBytes / int64(n)
	if perShard < 1 {
		perShard = 1
	}
	m := cfg.Metrics
	if m == nil {
		m = obs.NewMetrics(nil)
	}
	c := &Cache{
		shards:    make([]*shard, n),
		hits:      m.CacheHits,
		misses:    m.CacheMisses,
		coalesced: m.CacheCoalesced,
		inserts:   m.CacheInserts,
		evictions: m.CacheEvictions,
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries:  make(map[key]*entry),
			flights:  make(map[key]*flight),
			maxBytes: perShard,
		}
	}
	return c
}

// shardFor maps a key to its lock stripe. Query node is the only
// well-spread component; algorithm, k, and generation mostly repeat.
func (c *Cache) shardFor(k key) *shard {
	h := uint32(k.q)*2654435761 + uint32(k.k)*40503 + uint32(k.algo) + uint32(k.gen)
	return c.shards[h%uint32(len(c.shards))]
}

// resultSize estimates the bytes a cached result occupies.
func resultSize(res *core.Result) int64 {
	return entryOverhead + 8*int64(len(res.Entries))
}

// --- intrusive LRU list (shard.mu held) ---------------------------------

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// lookup returns the cached entry and refreshes its recency.
func (s *shard) lookup(k key) *entry {
	e := s.entries[k]
	if e != nil {
		s.moveFront(e)
	}
	return e
}

// insert admits a result, evicting from the LRU tail until the shard is
// back under budget. Oversized results are skipped (served, not stored).
// Re-inserting an existing key refreshes the stored result in place.
func (c *Cache) insert(s *shard, k key, res *core.Result) {
	size := resultSize(res)
	if size > s.maxBytes {
		return
	}
	if old := s.entries[k]; old != nil {
		s.bytes -= old.size
		old.res, old.size = res, size
		s.bytes += size
		s.moveFront(old)
		return
	}
	e := &entry{key: k, res: res, size: size}
	s.entries[k] = e
	s.pushFront(e)
	s.bytes += size
	c.inserts.Add(1)
	for s.bytes > s.maxBytes && s.tail != nil && s.tail != e {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
		s.bytes -= victim.size
		c.evictions.Add(1)
	}
}

// Snapshot is the cache section of /statsz. Field names are wire format:
// add, never rename.
type Snapshot struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Coalesced int64   `json:"coalesced"`
	HitRate   float64 `json:"hit_rate"`
	Inserts   int64   `json:"inserts"`
	Evictions int64   `json:"evictions"`
	Entries   int64   `json:"entries"`
	Bytes     int64   `json:"bytes"`
	MaxBytes  int64   `json:"max_bytes"`
	InFlight  int     `json:"in_flight"`
}

// Stats returns the cache counters and current occupancy.
func (c *Cache) Stats() Snapshot {
	snap := Snapshot{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Coalesced: c.coalesced.Value(),
		Inserts:   c.inserts.Value(),
		Evictions: c.evictions.Value(),
	}
	for _, s := range c.shards {
		s.mu.Lock()
		snap.Entries += int64(len(s.entries))
		snap.Bytes += s.bytes
		snap.MaxBytes += s.maxBytes
		snap.InFlight += len(s.flights)
		s.mu.Unlock()
	}
	if lookups := snap.Hits + snap.Misses + snap.Coalesced; lookups > 0 {
		snap.HitRate = float64(snap.Hits) / float64(lookups)
	}
	return snap
}
