package core

import (
	"math"

	"rkranks/internal/rank"
)

// Shared-traversal batch execution.
//
// Every refinement from a candidate p runs the same forward Dijkstra: its
// settle order and every logged (node, dist, rank) triple depend only on p,
// the graph, and the counted class — never on which query is being
// answered. The query determines only where the search STOPS: finding the
// query node (exact), reaching the kRank abort threshold, or exhausting
// the frontier. The batch arena exploits this across the queries of a
// batch.
//
// When a Pool executes a batch, each engine keeps the settle logs of the
// refinements it has run and, before launching a fresh search from p,
// scans the stored log with the current query's stop rules. The scan
// either resolves the refinement — producing the exact (bound, exact,
// stopLevel) triple and log prefix a fresh serial run would have produced,
// byte-for-byte — or reports that the stored log does not extend far
// enough, in which case the engine runs the search normally and stores the
// longer log. Side effects (Lemma-4 counters, index feedback) are applied
// from the replayed prefix through the same applyRefineLog used
// everywhere else, so batch execution is indistinguishable from per-query
// execution in everything but elapsed time.

const (
	// arenaSlabCap bounds the settle records one arena retains per batch
	// (16 MiB of settleRec). When full, stored logs keep serving replays
	// but no new logs are added — a coverage limit, never a correctness
	// one.
	arenaSlabCap = 1 << 20
	// arenaResultChunk / arenaEntryChunk size the result-assembly slabs:
	// one allocation per chunk instead of two per query. Chunks escape
	// with the results they back, so they are dropped (not recycled) at
	// batch end.
	arenaResultChunk = 256
	arenaEntryChunk  = 4096
	// hotMisses is the coverage-miss floor for declaring a candidate hot:
	// its next fresh run settles the entire reachable component
	// (refiner.runExhaustive) so every later refinement of it in the
	// batch replays. The first "miss" is just the first sighting, so the
	// floor is reached on the first genuine coverage failure; hot
	// additionally requires the spent-settles gate below.
	hotMisses = 2
	// missNeverExhaust marks a hot candidate whose exhaustive log did not
	// fit in the slab: retrying exhaustion would run the full search on
	// every miss without ever amortizing it, so fall back to bounded runs.
	missNeverExhaust = uint8(0xFF)
)

// logRef locates one candidate's stored settle log in the arena slab.
type logRef struct {
	off       int32
	n         int32
	cutoff    float64 // push bound the stored run used (refineCutoff)
	exhausted bool    // the run emptied its frontier (settled everything within cutoff)
	misses    uint8   // replay coverage misses this batch (see hotMisses)
	spent     int64   // settles spent on fresh bounded runs of p this batch
}

// batchArena is the per-pool-slot scratch one engine reuses across the
// queries of a batch: the shared-traversal log store plus chunked result
// slabs. It is owned by exactly one engine and accessed only from that
// engine's goroutine.
type batchArena struct {
	refs  []logRef
	stamp []uint32
	epoch uint32
	slab  []settleRec

	shared int64 // replays served this batch

	results []Result
	entries []rank.Entry
}

func newBatchArena(n int) *batchArena {
	return &batchArena{
		refs:  make([]logRef, n),
		stamp: make([]uint32, n),
	}
}

// begin invalidates all stored logs (O(1), epoch bump) and rewinds the
// record slab for a new batch.
func (a *batchArena) begin() {
	a.epoch++
	if a.epoch == 0 {
		clear(a.stamp)
		a.epoch = 1
	}
	a.slab = a.slab[:0]
	a.shared = 0
	a.results, a.entries = nil, nil
}

// end drops the result slabs: their chunks escaped inside returned
// Results, so they must not be recycled into the next batch.
func (a *batchArena) end() {
	a.results, a.entries = nil, nil
}

// store retains the settle log of a completed (never canceled) refinement
// from p, replacing a stored log only when the new one covers more of p's
// canonical settle sequence. Logs from the same candidate are always
// prefixes of one another below their respective coverage (settle order is
// cutoff- and threshold-invariant), so "longer or exhausted-with-a-wider-
// cutoff" is a total replacement order.
func (a *batchArena) store(p int32, cutoff float64, exhausted bool, log []settleRec) {
	var misses uint8
	var spent int64
	if a.stamp[p] == a.epoch {
		old := a.refs[p]
		misses, spent = old.misses, old.spent
		covers := int32(len(log)) > old.n ||
			(exhausted && (!old.exhausted || cutoff > old.cutoff))
		if !covers {
			return
		}
	}
	if len(a.slab)+len(log) > arenaSlabCap {
		if exhausted && math.IsInf(cutoff, 1) && a.stamp[p] == a.epoch {
			// A full-component log that cannot be retained must not be
			// recomputed on every future miss.
			a.refs[p].misses = missNeverExhaust
		}
		return
	}
	off := int32(len(a.slab))
	a.slab = append(a.slab, log...)
	a.refs[p] = logRef{off: off, n: int32(len(log)), cutoff: cutoff, exhausted: exhausted, misses: misses, spent: spent}
	a.stamp[p] = a.epoch
}

// spend accrues the settle cost of a fresh bounded run from p — the
// currency of the hot gate's rent-vs-buy comparison.
func (a *batchArena) spend(p int32, settled int64) {
	if a.stamp[p] == a.epoch {
		a.refs[p].spent += settled
	}
}

// hot reports whether the next fresh run from p should settle its whole
// component instead of stopping at this query's cutoff. Two conditions:
// the batch has genuinely missed p's stored coverage (hotMisses), and the
// settles already spent on p's bounded runs reach the graph order — an
// upper estimate of what one exhaustive run costs. The second is the
// ski-rental rule: exhausting then costs at most what p has already
// consumed, so a batch never pays more than ~2x the unshared refinement
// cost of any candidate, while hot candidates get every later refinement
// for a log scan. Only meaningful immediately after a replay miss, which
// stamps p's slot.
func (a *batchArena) hot(p int32) bool {
	r := a.refs[p]
	return r.misses == hotMisses && r.spent >= int64(len(a.refs))/2
}

// replay resolves a refinement of p for query q with push bound cutoff and
// abort threshold kRank against p's stored log, if any. On ok it returns
// exactly what a fresh serial run would have: the refineResult decision
// triple (settled is 0 — no search ran) and the log prefix that run would
// have recorded, ready for applyRefineLog. ok is false when no stored log
// exists or it stops short of where this query's run would.
//
// The scan applies the serial stop rules of refiner.run in stored order:
//
//   - a record beyond the cutoff means every counted settle within the
//     cutoff has already been scanned (records are nondecreasing in dist
//     and complete below the stored run's stop point), so a fresh run
//     would empty its frontier without reaching q: Unreachable;
//   - q's own record resolves exactly (the record is part of the serial
//     log, mirroring refiner.run's append-then-return);
//   - rec.rank-1 is the strictly-closer count when rec settled; reaching
//     kRank aborts after logging, exactly like the serial check.
func (a *batchArena) replay(p, q int32, dpq, cutoff float64, kRank int32) (out refineResult, log []settleRec, ok bool) {
	if a.stamp[p] != a.epoch {
		// First sighting of p this batch: stamp an empty slot so coverage
		// misses can be counted toward the hot-candidate threshold.
		a.stamp[p] = a.epoch
		a.refs[p] = logRef{cutoff: math.Inf(-1), misses: 1}
		return out, nil, false
	}
	ref := a.refs[p]
	if !(ref.exhausted && ref.cutoff >= cutoff) {
		// Fast miss: the scan can only succeed on a stop event, and the
		// log's last record bounds all three kinds. Distances and ranks
		// are nondecreasing along the log, so if every record is within
		// the cutoff (no beyond-cutoff witness), the peak strictly-closer
		// count never reaches the abort threshold, and the coverage ends
		// before d(p, q) — where q's own record would have to sit — no
		// stop event exists and the full scan is a wasted walk. dpq is
		// +Inf when unknown (naive engine), which disables the q test.
		var last settleRec
		if ref.n > 0 {
			last = a.slab[ref.off+ref.n-1]
		}
		if last.dist <= cutoff && last.dist < dpq && last.rank-1 < kRank {
			if ref.misses < hotMisses {
				a.refs[p].misses++
			}
			return out, nil, false
		}
	}
	out, log, ok = scanSettleLog(a.slab[ref.off:ref.off+ref.n], q, cutoff, kRank, ref.exhausted, ref.cutoff)
	if !ok && ref.misses < hotMisses {
		a.refs[p].misses++
	}
	return out, log, ok
}

// scanSettleLog resolves a refinement for query q (push bound cutoff, abort
// threshold kRank) against a settle log from p covering distances up to
// storedCutoff (exhausted: the frontier emptied within it). It is the
// decision core of replay, shared with the hot-candidate path, which scans
// the full-component log it just recorded (exhausted=true, +Inf cutoff).
func scanSettleLog(recs []settleRec, q int32, cutoff float64, kRank int32, exhausted bool, storedCutoff float64) (out refineResult, log []settleRec, ok bool) {
	for i, rec := range recs {
		if rec.dist > cutoff {
			return refineResult{bound: rank.Unreachable, stopLevel: math.Inf(1)}, recs[:i], true
		}
		if rec.node == q {
			return refineResult{bound: rec.rank, exact: true, stopLevel: rec.dist}, recs[:i+1], true
		}
		if rec.rank-1 >= kRank {
			return refineResult{bound: rec.rank, stopLevel: rec.dist, aborted: true}, recs[:i+1], true
		}
	}
	if exhausted && storedCutoff >= cutoff {
		// The stored run settled everything reachable within a bound at
		// least as wide as ours and never saw q; a fresh run exhausts too.
		return refineResult{bound: rank.Unreachable, stopLevel: math.Inf(1)}, recs, true
	}
	// The stored log ends (early exact/abort stop, or a narrower cutoff)
	// before this query's run would stop: not enough coverage to decide.
	return out, nil, false
}

// newResult hands out one Result from the chunked result slab.
func (a *batchArena) newResult() *Result {
	if len(a.results) == cap(a.results) {
		a.results = make([]Result, 0, arenaResultChunk)
	}
	a.results = a.results[:len(a.results)+1]
	return &a.results[len(a.results)-1]
}

// entryBuf hands out an empty entry slice with capacity n from the chunked
// entry slab, capped so appends past n cannot clobber a neighbor's entries.
func (a *batchArena) entryBuf(n int) []rank.Entry {
	if cap(a.entries)-len(a.entries) < n {
		c := arenaEntryChunk
		if c < n {
			c = n
		}
		a.entries = make([]rank.Entry, 0, c)
	}
	off := len(a.entries)
	a.entries = a.entries[:off+n]
	return a.entries[off : off : off+n]
}

// BeginBatch attaches the engine's per-pool-slot arena for a batch of
// queries: refinement settle logs are shared across the batch's queries
// and results are assembled from chunked slabs. The arena itself (the
// directory arrays and record slab) is allocated once per engine and
// recycled across batches. Paired with EndBatch.
func (e *Engine) BeginBatch() {
	if e.batch == nil {
		e.batch = newBatchArena(e.g.N())
	}
	e.batch.begin()
	e.arena = e.batch
}

// EndBatch detaches the arena, returning the engine to plain per-query
// execution, and reports how many refinements the batch served by shared-
// traversal replay instead of a fresh search.
func (e *Engine) EndBatch() (shared int64) {
	if e.arena == nil {
		return 0
	}
	shared = e.arena.shared
	e.arena.end()
	e.arena = nil
	return shared
}
