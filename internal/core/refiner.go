package core

import (
	"math"
	"sync/atomic"

	"rkranks/internal/graph"
	"rkranks/internal/rank"
	"rkranks/internal/sssp"
)

// refiner owns the workspace for rank refinements (Algorithms 2 and 4): a
// forward Dijkstra search plus the per-query parameters the inner loop
// needs.
//
// A refiner performs NO side effects: it only settles nodes and records
// counted settles in a log. All engine-state mutations (result-heap
// offers, Lemma-4 counters, index feedback) are derived from the log
// afterwards by Engine.applyRefineLog, which is what lets a batch replay a
// stored log in place of a fresh search (batchexec.go).
type refiner struct {
	ref *sssp.Search

	// Per-query parameters, fixed by prepare before any run.
	q       int32
	counted []bool
	noCut   bool
	// stop is the engine-level cancellation flag (QueryContext), nil when
	// the query cannot be canceled.
	stop *atomic.Bool
}

func newRefiner(g *graph.Graph) *refiner {
	// The refinement loop only consumes settle order and distances, never
	// the shortest-path tree, so the lite search (no parent/depth writes)
	// is safe and shaves a store off every successful relaxation.
	return &refiner{ref: sssp.NewLite(g)}
}

// prepare binds the refiner to one query's parameters.
func (r *refiner) prepare(q int32, counted []bool, noCut bool, stop *atomic.Bool) {
	r.q = q
	r.counted = counted
	r.noCut = noCut
	r.stop = stop
}

// refineCutoff derives the push bound a refinement uses from the known
// d(p, q): the ulp-inflated cutoff, or +Inf when distance cutoffs are
// disabled. Shared between the search itself (run) and the batch arena's
// replay gate (batchexec.go), which must agree on it exactly.
func refineCutoff(dpq float64, noCut bool) float64 {
	if noCut {
		return math.Inf(1)
	}
	return sssp.Cutoff(dpq)
}

// refineResult describes one rank-refinement run. A run stopped by query
// cancellation returns a truncated result that callers discard unread.
type refineResult struct {
	bound     int32   // exact rank (exact) or certified lower bound
	exact     bool    // q was settled; bound is Rank(p, q)
	stopLevel float64 // distance level the search stopped at (+Inf: exhausted)
	settled   int64   // nodes settled by this search
	aborted   bool    // hit the kRank early-exit
	stopped   bool    // query-level cancellation fired; log is truncated
}

// run computes Rank(p, q) by partial Dijkstra from p (Algorithm 2 / 4).
//
// dpq is d(p, q) when known (from the SDS-tree pop), +Inf otherwise; it
// bounds queue pushes, since nodes farther than q never settle before q.
//
// kRank is the abort threshold: the search stops as soon as the
// strictly-closer count reaches it, because then Rank(p, q) > kRank and p
// cannot enter the result (Definition 2).
//
// The (node, dist, rank) log of counted settles is appended to log's
// backing array and returned; the caller owns it until the next run with
// the same slice.
func (r *refiner) run(p int32, dpq float64, kRank int32, log []settleRec) (refineResult, []settleRec) {
	dpq = refineCutoff(dpq, r.noCut)
	r.ref.Reset(p)
	out := refineResult{stopLevel: math.Inf(1)}
	strictBelow := 0
	settledCounted := 0
	level := math.Inf(-1)
	for {
		v, d, ok := r.ref.PopExpandBounded(dpq)
		if !ok {
			// Whole component settled without reaching q: all strictly
			// closer (only possible for the naive engine; SDS-tree pops
			// always reach q).
			out.bound, out.exact = rank.Unreachable, false
			return out, log
		}
		out.settled++
		if r.stop != nil && out.settled&63 == 0 && r.stop.Load() {
			// Engine-level cancellation (QueryContext): the query is being
			// abandoned, so stop the search where it stands. The truncated
			// log is marked and never stored or applied.
			out.stopped = true
			return out, log
		}
		if v == p {
			continue
		}
		if r.counted != nil && !r.counted[v] {
			continue
		}
		if d > level {
			strictBelow = settledCounted
			level = d
		}
		rr := int32(strictBelow + 1)
		if v == r.q {
			out.bound, out.exact, out.stopLevel = rr, true, d
			return out, append(log, settleRec{v, d, rr})
		}
		settledCounted++
		log = append(log, settleRec{v, d, rr})
		if int32(strictBelow) >= kRank {
			// Rank(p, q) >= strictBelow+1 > kRank: p cannot qualify.
			out.bound, out.exact, out.stopLevel = rr, false, d
			out.aborted = true
			return out, log
		}
	}
}

// runExhaustive settles p's entire reachable component, logging every
// counted settle — no push bound, no query stop, no abort threshold. The
// batch arena's hot-candidate path (batchexec.go) uses it when a batch
// keeps re-searching the same candidate with ever-wider cutoffs: one full
// search whose log replays every later refinement of p, including the one
// that triggered it (scanSettleLog applies the query's stop rules to the
// complete log). Records are appended exactly as run would append them for
// a query that never stops, so the log is a superset of every bounded
// run's log from p: query nodes are counted class members (checkArgs), so
// their records carry the same (dist, rank) a bounded run returning at
// them would record.
func (r *refiner) runExhaustive(p int32, log []settleRec) (refineResult, []settleRec) {
	r.ref.Reset(p)
	out := refineResult{stopLevel: math.Inf(1)}
	strictBelow := 0
	settledCounted := 0
	level := math.Inf(-1)
	for {
		v, d, ok := r.ref.PopExpandBounded(math.Inf(1))
		if !ok {
			return out, log
		}
		out.settled++
		if r.stop != nil && out.settled&63 == 0 && r.stop.Load() {
			out.stopped = true
			return out, log
		}
		if v == p {
			continue
		}
		if r.counted != nil && !r.counted[v] {
			continue
		}
		if d > level {
			strictBelow = settledCounted
			level = d
		}
		settledCounted++
		log = append(log, settleRec{v, d, int32(strictBelow + 1)})
	}
}
