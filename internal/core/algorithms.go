package core

import "math"

// naive is the Section 2 baseline: evaluate Rank(p, q) for every candidate
// node p by a partial Dijkstra from p, keeping the best k in a heap. The
// only optimization retained from the paper's description is the running
// kRank bound inside each refinement ("the top-k of these ranks are
// maintained in a heap").
func (e *Engine) naive(q int32, k int) *Result {
	e.begin(q, k, Naive)
	n := int32(e.g.N())
	for p := int32(0); p < n; p++ {
		if e.stopped() {
			break
		}
		if p == q || !e.candidate(p) {
			continue
		}
		bound, exact := e.refine(p, math.Inf(1))
		if exact && bound <= e.heap.kRank() {
			e.offer(p, bound)
		}
	}
	return e.finish()
}

// sdsTree is the SDS-tree filter-and-refine traversal shared by every
// engine but Naive: traverse the transpose graph from q in distance order,
// decide each dequeued candidate, and expand a node's children only while
// they can still qualify (Theorem 1: descendants rank no better than their
// ancestors). The engines differ only in the per-candidate decision:
//
//   - Static (Section 3, Algorithm 1) rank-refines every candidate.
//   - Dynamic (Section 4) delays candidacy to dequeue time and skips the
//     refinement when the Theorem-2 lower bound — max(height, parent rank,
//     visit count) — already exceeds kRank.
//   - Indexed (Section 5, Algorithms 3-4) seeds the result heap from the
//     Reverse Rank Dictionary of q, skips candidates whose exact rank the
//     dictionary knows, and joins the Check Dictionary to the Theorem-2
//     bound. Refinements feed their discoveries back into the index, so
//     subsequent queries get faster (Table 14).
//   - HubLabel adds a lower bound read off the hub labeling (labelBound).
//
// Every bound comparison is strict, so candidates tying the k-th rank are
// still refined and tie-break through the result heap: every engine then
// returns the canonical minimum k entries by (rank, node id), independent
// of traversal and pruning order — the invariant the cluster coordinator's
// shard merge relies on.
//
// A query with a merged k (WithMergedK) on an engine with a candidate mask
// also decides every foreign candidate — a member of the cluster's class
// outside the mask — as if it were its own: the same bounds, and a
// refinement when none settles it. The rank it learns cuts the subtree
// below it (Lemma 1) and enters the shadow heap of the merged k best
// ranks the engine has seen, whose k-th rank joins the threshold (see
// kRank). A foreign candidate never enters the result heap.
func (e *Engine) sdsTree(a Algorithm, q int32, k int) *Result {
	e.begin(q, k, a)
	if e.indexing {
		e.seedFromIndex()
	}
	e.tree.ResetReverse(q)
	for {
		v, d, ok := e.tree.Pop()
		if !ok || e.stopped() {
			break
		}
		e.stats.TreeSettled++
		e.noteZeroDepth(v, d)
		if v == q {
			e.tree.Expand(v, d)
			continue
		}
		if !e.candidate(v) && !e.foreign(v) {
			e.passThrough(v, d)
			continue
		}
		if e.pruning && e.prune(v, d) {
			continue
		}
		e.refineAndSettle(v, d)
	}
	return e.finish()
}

// prune tries the engine's refinement-avoiding tests on candidate v in
// order — an exact Reverse Rank Dictionary hit (Indexed), the Theorem-2
// bound joined with the Check Dictionary (Indexed), then the hub-label
// bound (HubLabel) — and reports whether one of them settled v.
func (e *Engine) prune(v int32, d float64) bool {
	var check int32
	if e.indexing {
		// Read Check BEFORE LookupRank. Check(v) only bounds Rank(v, q)
		// when q is not recorded in Reverse(q) with source v, and index
		// writers publish the witness entry before raising the bound
		// (Offer, then RaiseCheck — see applyRefineLog). Reading in the
		// matching order guarantees that a bound covering the (v, q)
		// exception is always read together with its visible witness; the
		// reverse order could, on a shared concurrent index, observe a
		// freshly raised bound while missing the just-offered exact rank
		// and wrongly prune a true result.
		check = e.idx.Check(v)
		if r, known := e.idx.LookupRank(e.q, v); known {
			e.indexHit(v, d, r)
			return true
		}
	}
	t := e.lowerBound(v)
	lb := max(t, check)
	kRank := e.kRank()
	if lb > kRank {
		sub := lb
		if check > t && (!e.counted(v) || d == 0) {
			sub = max(t, e.evictionCap(check))
		}
		e.skipCandidate(v, d, lb, sub)
		return true
	}
	if !e.labeling {
		return false
	}
	if kRank != kRankInf {
		// The cheap Theorem-2 components did not disqualify v; scan the
		// labeling before conceding a refinement. Skipped while the heap
		// is short of k entries (kRank == kRankInf): nothing can be
		// pruned yet, and an unbounded count would walk entire inverted
		// lists.
		if lbl := e.labelBound(v, d, kRank); lbl > kRank {
			e.stats.LabelPruned++
			e.skipCandidate(v, d, lbl, lbl)
			return true
		}
	}
	e.stats.LabelFallbacks++
	return false
}

// evictionCap bounds what Check(v) may hand to v's subtree. When Reverse(q)
// is full, v's missing entry may have been evicted: v is then pruned by
// the eviction argument (the list's entries all order before it), and
// Check(v), which the search from v raised past q, is no bound on
// Rank(v, q) at all. Rank(v, q) is still at least the rank of the list's
// last entry, so min(Check(v), that rank) is a bound either way.
//
// The cap matters below an uncounted v or one at distance 0 from q: there
// a descendant can tie v's rank and precede the evicting entries by node
// id, so the uncapped Check would cut a true result. Below a counted v at
// positive distance, v itself is strictly closer to every descendant than
// q, which keeps descendants a rank behind v unless the descendant is
// itself strictly closer to v than q. That last case can tie too and is
// left open: randomized checks with k equal to the index K have not found
// a failure, and capping every full list doubles the refinements.
func (e *Engine) evictionCap(check int32) int32 {
	e.rev = e.idx.Reverse(e.q, e.rev[:0])
	if len(e.rev) < e.idx.MaxK() {
		return check // nothing was ever evicted
	}
	return min(check, e.rev[len(e.rev)-1].Rank)
}

// skipCandidate records a candidate disqualified by its lower bound lb;
// sub is the bound it certifies for v's subtree (lb itself unless the
// Check Dictionary's eviction argument is involved; see evictionCap). The
// subtree is usually pruned too (Theorem 1), except in bichromatic mode
// where an uncounted node's descendants may rank one better than the node
// itself (see descBound) and must still be explored. The recorded
// descendant bound keeps the parent's (which passes through v unweakened)
// when that is stronger than v's own adjusted bound. Expansion is
// tie-inclusive (db <= kRank): a descendant tying the k-th rank could
// still tie-break into the canonical result, so only a strictly worse
// certified bound may cut the subtree.
func (e *Engine) skipCandidate(v int32, d float64, lb, sub int32) {
	db := max(e.descBound(v, sub), e.parentBound(v))
	e.setDescBound(v, db)
	e.stats.PrunedByBound++
	expand := db <= e.kRank()
	if expand {
		e.tree.Expand(v, d)
	}
	e.trace(v, d, TracePrunedByBound, lb, expand)
}

// seedFromIndex primes the result heap (and, for a merged-k query, the
// shadow heap) from the Reverse Rank Dictionary of the query node before
// traversal starts (Algorithm 3, line 1).
func (e *Engine) seedFromIndex() {
	e.rev = e.idx.Reverse(e.q, e.rev[:0])
	for _, en := range e.rev {
		if (e.candidate(en.Node) || e.foreign(en.Node)) && e.offer(en.Node, en.Rank) {
			e.stats.SeededFromIndex++
			e.trace(en.Node, 0, TraceSeeded, en.Rank, false)
		}
	}
}

// indexHit handles a dequeued candidate whose exact rank the Reverse Rank
// Dictionary already knows, skipping its refinement. Like settleRefined,
// expansion is decided on the tie-inclusive descendant bound so the
// canonical result never loses a boundary tie to the index shortcut.
func (e *Engine) indexHit(v int32, d float64, r int32) {
	e.stats.IndexHits++
	db := e.descBound(v, r)
	e.setDescBound(v, db)
	e.offer(v, r)
	expand := db <= e.kRank()
	if expand {
		e.tree.Expand(v, d)
	}
	e.trace(v, d, TraceIndexHit, r, expand)
}

// passThrough handles a dequeued node outside the candidate class V1
// (bichromatic queries, or another shard's candidate without a merged k):
// it cannot be a result, but shortest paths of candidates run through
// it. Its descendants are also descendants of its parent, so the
// parent's descendant bound passes through unweakened (no per-hop loss),
// and the subtree is pruned once that bound already disqualifies
// everything below.
func (e *Engine) passThrough(v int32, d float64) {
	pb := e.parentBound(v)
	e.setDescBound(v, pb)
	expand := pb <= e.kRank()
	if expand {
		e.tree.Expand(v, d)
	}
	e.trace(v, d, TracePassThrough, pb, expand)
}

// noteZeroDepth tracks, for the height bound, the depth of each popped
// node's deepest ancestor-or-self at distance 0 from q. Nodes at distance
// 0 pop first, so once a node besides q has popped there (zero-weight
// arcs), every later pop copies its parent's value, which is set by then.
// Graphs without such ties never touch the array.
func (e *Engine) noteZeroDepth(v int32, d float64) {
	if d == 0 {
		if v == e.q {
			return
		}
		if e.zdepth == nil {
			e.zdepth = make([]int32, e.g.N())
		}
		if !e.zeroTied {
			e.zeroTied = true
			e.zdepth[e.q] = 0
		}
		e.zdepth[v] = e.tree.Depth(v)
		return
	}
	if e.zeroTied {
		e.zdepth[v] = e.zdepth[e.tree.Parent(v)]
	}
}

// lowerBound evaluates the Theorem-2 lower bound of a candidate about to
// be refined and attributes the win for the Table 11 analysis. Tie
// attribution order: height, count, parent.
//
// The height component (Lemma 2) counts the path nodes strictly closer
// to v than q: every node on v's SDS-tree path to q except those at
// distance 0 from q, which are exactly as close as q. Those sit at the
// top of the path, so the bound is v's depth minus the depth of its
// deepest distance-0 ancestor (noteZeroDepth), which is 0 unless
// zero-weight arcs leave q.
func (e *Engine) lowerBound(v int32) int32 {
	var height, count, parent int32
	if e.bounds&BoundHeight != 0 {
		height = e.tree.Depth(v)
		if e.zeroTied {
			height -= e.zdepth[e.tree.Parent(v)]
		}
	}
	if e.bounds&BoundCount != 0 {
		count = e.lcountOf(v)
	}
	if e.bounds&BoundParent != 0 {
		parent = e.parentBound(v)
	}
	switch {
	case height >= count && height >= parent:
		e.stats.HeightWins++
	case count >= parent:
		e.stats.CountWins++
	default:
		e.stats.ParentWins++
	}
	return max(height, count, parent)
}
