package ridx

import (
	"fmt"
	"io"
	"sync"

	"rkranks/internal/rank"
)

// Delta operation kinds. The values are part of the replication wire
// protocol (internal/api maps them to JSON): add, never renumber.
const (
	// DeltaOffer records Rank(U, V) = R in the Reverse Rank Dictionary
	// of V.
	DeltaOffer uint8 = 1
	// DeltaCheck raises the Check Dictionary bound of U to R (V unused).
	DeltaCheck uint8 = 2
)

// Delta is one state-changing dictionary update, replayable on any
// replica of the same graph. Both operation kinds carry exact facts —
// an Offer is an exact (u, Rank(u, v)) pair and a RaiseCheck a
// certified bound — so deltas are idempotent (re-applying is a no-op)
// and commute with each other and with concurrent local refinement.
// A delta stream may therefore be applied out of order across writers,
// duplicated, or overlapped with a snapshot without corrupting the
// follower; only the per-writer order (witness offers before the check
// bound they justify) must be preserved, and the log guarantees it
// because each writer appends its offer before its raise.
type Delta struct {
	Op      uint8
	V, U, R int32
}

// defaultDeltaLog bounds the replication log: ~64K deltas is roughly
// 1 MB and covers minutes of steady-state refinement (a warmed-up pool
// rejects most re-offers before they reach the log). A follower whose
// cursor falls off the tail re-syncs from a full snapshot.
const defaultDeltaLog = 1 << 16

// Replicated wraps a ShardedIndex with a bounded, sequence-numbered log
// of its state-changing updates, making the index's learned state
// shippable: a leader serves WriteSnapshot + DeltasSince and a follower
// replays them with Absorb + Apply, inheriting refinements instead of
// re-deriving them from its own queries.
//
// Correctness of snapshot + delta replay: WriteSnapshot captures the
// log sequence BEFORE copying the dictionaries, so every update is
// either in the snapshot or in the deltas at or after the returned
// sequence (an update logs itself only after the dictionaries already
// hold it). The two sets may overlap; idempotence absorbs the overlap.
//
// Invalidate and BumpGeneration reset the log: previously streamed
// deltas describe a discarded answer set, so followers at any older
// cursor are told (via DeltasSince ok=false and the generation carried
// on the wire) to re-sync from a fresh snapshot.
//
// Replicated implements Index and is safe for concurrent use; it adds
// one short mutex-guarded append to state-changing calls only, so the
// steady-state read path (and rejected re-offers) pay nothing.
type Replicated struct {
	inner *ShardedIndex

	mu   sync.Mutex
	log  []Delta
	base uint64 // sequence number of log[0]
	cap  int
}

// NewReplicated wraps inner with a delta log of at most logCap entries
// (<= 0 uses a default of 64K). The wrapper owns the index's
// state-changing path: callers must route every Offer/RaiseCheck
// through the wrapper, or the log will miss updates.
func NewReplicated(inner *ShardedIndex, logCap int) *Replicated {
	if logCap <= 0 {
		logCap = defaultDeltaLog
	}
	return &Replicated{inner: inner, cap: logCap}
}

// Inner exposes the wrapped sharded index.
func (r *Replicated) Inner() *ShardedIndex { return r.inner }

// append logs one state-changing update, dropping the oldest half of
// the log when full (amortized O(1); truncated followers fall back to a
// snapshot).
func (r *Replicated) append(d Delta) {
	r.mu.Lock()
	if len(r.log) >= r.cap {
		drop := r.cap / 2
		if drop < 1 {
			drop = 1
		}
		r.base += uint64(drop)
		r.log = append(r.log[:0], r.log[drop:]...)
	}
	r.log = append(r.log, d)
	r.mu.Unlock()
}

// reset discards the log; any follower cursor before the new base now
// requires a snapshot.
func (r *Replicated) reset() {
	r.mu.Lock()
	r.base += uint64(len(r.log))
	r.log = r.log[:0]
	r.mu.Unlock()
}

// Seq returns the sequence number the next logged delta will get.
func (r *Replicated) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base + uint64(len(r.log))
}

// DeltasSince returns up to max logged deltas starting at sequence
// since, with the cursor to pass next time. ok=false means the log no
// longer reaches back to since (truncated or reset) and the follower
// must re-sync from a snapshot. max <= 0 means no limit.
func (r *Replicated) DeltasSince(since uint64, max int) (ds []Delta, next uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	end := r.base + uint64(len(r.log))
	if since < r.base {
		return nil, end, false
	}
	if since >= end {
		return nil, end, true
	}
	n := end - since
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	start := since - r.base
	ds = append([]Delta(nil), r.log[start:start+n]...)
	return ds, since + n, true
}

// SnapshotState captures a consistent copy of the index together with
// the delta cursor and generation a follower should resume from. The
// sequence is read before the copy (see the type docs), so replaying
// deltas from seq over the snapshot converges on the leader's state.
func (r *Replicated) SnapshotState() (snap *Snapshot, seq uint64, gen uint64) {
	seq = r.Seq()
	gen = r.inner.Generation()
	return r.inner.Snapshot(), seq, gen
}

// WriteSnapshot serializes a consistent snapshot in the shared ridx
// on-disk format and returns the cursor/generation pair for it.
func (r *Replicated) WriteSnapshot(w io.Writer) (seq uint64, gen uint64, err error) {
	snap, seq, gen := r.SnapshotState()
	return seq, gen, snap.Write(w)
}

// Apply replays a batch of deltas in order, reporting how many changed
// the dictionaries. Applied changes are re-logged, so a follower can
// itself lead further replicas. The whole batch is checked first: an
// unknown op, a node outside [0, N()) (U, and an offer's V; a check's V
// is unused) or an offered rank below 1 fails the call with an error
// wrapping ErrFormat, and nothing is applied.
func (r *Replicated) Apply(ds []Delta) (applied int, err error) {
	n := r.N()
	for i, d := range ds {
		switch {
		case d.Op != DeltaOffer && d.Op != DeltaCheck:
			return 0, fmt.Errorf("ridx: delta %d: unknown op %d: %w", i, d.Op, ErrFormat)
		case d.U < 0 || int(d.U) >= n || (d.Op == DeltaOffer && (d.V < 0 || int(d.V) >= n)):
			return 0, fmt.Errorf("ridx: delta %d: node out of range [0,%d) (v=%d u=%d): %w", i, n, d.V, d.U, ErrFormat)
		case d.Op == DeltaOffer && d.R < 1:
			return 0, fmt.Errorf("ridx: delta %d: offer of rank %d: %w", i, d.R, ErrFormat)
		}
	}
	for _, d := range ds {
		switch d.Op {
		case DeltaOffer:
			if r.Offer(d.V, d.U, d.R) {
				applied++
			}
		case DeltaCheck:
			if d.R > r.inner.Check(d.U) {
				r.RaiseCheck(d.U, d.R)
				applied++
			}
		}
	}
	return applied, nil
}

// Absorb merges every fact of a snapshot into the index: the full
// re-sync path when a follower's cursor fell off the leader's log. The
// snapshot's check bounds are raised only after its witness entries are
// offered, preserving the cross-dictionary invariant throughout.
// Absorbing a snapshot of the same graph is always sound — facts are
// exact and commute with local refinement — and idempotent. A snapshot
// over a different node count fails with an error wrapping ErrFormat,
// and nothing is applied.
func (r *Replicated) Absorb(snap *Snapshot) (applied int, err error) {
	if snap.N() != r.N() {
		return 0, fmt.Errorf("ridx: snapshot covers %d nodes, index %d: %w", snap.N(), r.N(), ErrFormat)
	}
	for v, list := range snap.rrd {
		for _, e := range list {
			if r.Offer(int32(v), e.Node, e.Rank) {
				applied++
			}
		}
	}
	for u, bound := range snap.check {
		if bound > r.inner.Check(int32(u)) {
			r.RaiseCheck(int32(u), bound)
			applied++
		}
	}
	return applied, nil
}

// RaiseGeneration raises the index generation to at least gen,
// monotonically. Followers call it with the leader's generation so
// caches keyed on Generation agree across the replica set; raising it
// merely orphans cache entries, which is always sound.
func (r *Replicated) RaiseGeneration(gen uint64) {
	for {
		cur := r.inner.gen.Load()
		if gen <= cur {
			return
		}
		if r.inner.gen.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// MaxK implements Index.
func (r *Replicated) MaxK() int { return r.inner.MaxK() }

// Hubs implements Index.
func (r *Replicated) Hubs() []int32 { return r.inner.Hubs() }

// N implements Index.
func (r *Replicated) N() int { return r.inner.N() }

// Check implements Index.
func (r *Replicated) Check(u int32) int32 { return r.inner.Check(u) }

// RaiseCheck implements Index, logging the raise when it changes the
// bound. The pre-check races with concurrent raises, so an occasional
// no-op raise is logged; replaying it is harmless (bounds are monotone).
func (r *Replicated) RaiseCheck(u, bound int32) {
	if bound <= r.inner.Check(u) {
		return
	}
	r.inner.RaiseCheck(u, bound)
	r.append(Delta{Op: DeltaCheck, U: u, R: bound})
}

// Reverse implements Index.
func (r *Replicated) Reverse(v int32, dst []rank.Entry) []rank.Entry { return r.inner.Reverse(v, dst) }

// LookupRank implements Index.
func (r *Replicated) LookupRank(v, u int32) (int32, bool) { return r.inner.LookupRank(v, u) }

// Offer implements Index, logging the update when the dictionary
// changed.
func (r *Replicated) Offer(v, u, rk int32) bool {
	changed := r.inner.Offer(v, u, rk)
	if changed {
		r.append(Delta{Op: DeltaOffer, V: v, U: u, R: rk})
	}
	return changed
}

// Entries implements Index.
func (r *Replicated) Entries() int64 { return r.inner.Entries() }

// SizeBytes implements Index.
func (r *Replicated) SizeBytes() int64 { return r.inner.SizeBytes() }

// Write implements Index (a consistent snapshot, no cursor; use
// WriteSnapshot to also obtain the replication cursor).
func (r *Replicated) Write(w io.Writer) error { return r.inner.Write(w) }

// Generation implements Index.
func (r *Replicated) Generation() uint64 { return r.inner.Generation() }

// BumpGeneration implements Index; the log resets because streamed
// deltas describe the discarded answer set.
func (r *Replicated) BumpGeneration() {
	r.inner.BumpGeneration()
	r.reset()
}

// Invalidate implements Index; the log resets (see BumpGeneration).
func (r *Replicated) Invalidate() {
	r.inner.Invalidate()
	r.reset()
}

var _ Index = (*Replicated)(nil)
