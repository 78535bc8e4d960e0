package core

import (
	"fmt"
	"math"
	"strings"

	"rkranks/internal/rank"
)

// Stats records the work an engine performed for one query. The counters
// mirror the paper's performance metrics: Refinements is the "Rank
// Refinement" column reported throughout Section 6, and the bound-win
// counters feed the Table 11 analysis.
//
// The json tags define the wire schema internal/server exposes in query
// responses and /statsz aggregates; like the stats.Table tags they are a
// frozen format — add fields if needed, never rename these keys.
type Stats struct {
	// Refinements counts GetRank invocations (partial Dijkstra searches).
	Refinements int `json:"refinements"`
	// RefineSettled counts nodes settled across all rank refinements.
	RefineSettled int64 `json:"refine_settled"`
	// RefineAborted counts refinements that hit the kRank early-exit.
	RefineAborted int `json:"refine_aborted"`
	// TreeSettled counts nodes dequeued from the SDS-tree traversal.
	TreeSettled int `json:"tree_settled"`
	// PrunedByBound counts candidates skipped because their Theorem-2
	// lower bound (possibly including the Check Dictionary) reached kRank.
	PrunedByBound int `json:"pruned_by_bound"`
	// IndexHits counts candidates whose exact rank came from the Reverse
	// Rank Dictionary, avoiding a refinement.
	IndexHits int `json:"index_hits"`
	// SeededFromIndex counts result entries seeded from the Reverse Rank
	// Dictionary before traversal started.
	SeededFromIndex int `json:"seeded_from_index"`
	// HeightWins / CountWins / ParentWins attribute, for every candidate
	// whose lower bound was evaluated, which Theorem-2 component was the
	// maximum (ties attributed in the order height, count, parent).
	HeightWins int64 `json:"height_wins"`
	CountWins  int64 `json:"count_wins"`
	ParentWins int64 `json:"parent_wins"`
	// SharedTraversals counts refinements resolved by replaying a settle
	// log stored by an earlier query of the same batch instead of running
	// a fresh search (batch execution only — see batchexec.go; always 0
	// for standalone queries). Replays change effort accounting, never
	// decisions: a replayed refinement contributes 0 to RefineSettled
	// because no nodes were settled for it.
	SharedTraversals int `json:"batch_shared_traversals"`
	// LabelPruned counts HubLabel candidates pruned because the hub-label
	// scan alone certified Rank > kRank — no Dijkstra work at all (always 0
	// for the other engines).
	LabelPruned int `json:"label_pruned"`
	// LabelFallbacks counts HubLabel candidates the labeling could not
	// disqualify, which therefore fell back to a CSR Dijkstra rank
	// refinement. LabelFallbacks / (LabelFallbacks + LabelPruned) is the
	// fallback rate /statsz reports.
	LabelFallbacks int `json:"label_fallbacks"`
	// LabelScanned counts inverted-list entries visited by hub-label scans.
	LabelScanned int64 `json:"label_entries_scanned"`
}

// Add accumulates other into s (used when averaging over query batches).
func (s *Stats) Add(other Stats) {
	s.Refinements += other.Refinements
	s.RefineSettled += other.RefineSettled
	s.RefineAborted += other.RefineAborted
	s.TreeSettled += other.TreeSettled
	s.PrunedByBound += other.PrunedByBound
	s.IndexHits += other.IndexHits
	s.SeededFromIndex += other.SeededFromIndex
	s.HeightWins += other.HeightWins
	s.CountWins += other.CountWins
	s.ParentWins += other.ParentWins
	s.SharedTraversals += other.SharedTraversals
	s.LabelPruned += other.LabelPruned
	s.LabelFallbacks += other.LabelFallbacks
	s.LabelScanned += other.LabelScanned
}

// Result is the answer to one reverse k-ranks query.
//
// Entries is canonical: the minimum K candidates by (rank, node id),
// independent of engine, traversal order, pruning, index state, and —
// for cluster-merged results — shard layout. Every exclusion an engine
// performs is backed by a bound that strictly exceeds the final k-th
// (rank, node id) pair, so boundary ties always tie-break into the
// result by node id rather than by evaluation order.
type Result struct {
	// Query is the query node q.
	Query int32
	// K is the requested result size.
	K int
	// Entries holds the result nodes with their exact Rank(p, q) values,
	// ordered by (rank, node id). len(Entries) < K only when fewer than K
	// nodes can reach q, or, under a merged k (WithMergedK), when the rest
	// cannot reach the merged top k.
	Entries []rank.Entry
	// Partial marks a result assembled from an incomplete candidate set:
	// a cluster coordinator answered in degraded mode while one or more
	// shard backends were unavailable, so entries owned by those shards
	// may be missing. Single-node engines never set it.
	Partial bool
	// Generation stamps the graph generation the answer was computed on.
	// Engines and pools leave it 0; a live mutable backend stamps every
	// result with the generation of the state snapshot it served from, and
	// a cluster coordinator refuses to merge shard answers whose stamps
	// differ (a merge across two graph generations would be silently
	// wrong). It rides the wire as QueryResponse.Generation.
	Generation uint64
	// Stats describes the work performed.
	Stats Stats
	// Trace holds the per-node decision log when Engine.SetTracing is
	// enabled, nil otherwise.
	Trace []TraceEvent
}

// Floor is a certified exclusive bound, in (rank, node id) result order,
// on every candidate a query evaluated but did not return: each withheld
// candidate either cannot reach the query node at all or orders strictly
// after (Rank, Node). A cluster coordinator uses shard floors to certify
// a merged global top-k without transferring every shard's full result
// (see internal/cluster). Under a merged k (WithMergedK) a withheld
// candidate may instead be one that cannot reach the merged top k.
type Floor struct {
	// Rank and Node are the k-th returned entry (the floor's witness).
	Rank int32
	Node int32
	// Exhausted reports that the query returned every candidate able to
	// reach the query node: nothing was withheld, the floor is vacuous.
	Exhausted bool
}

// Floor derives the rank floor a full result certifies: a result shorter
// than K exhausted its candidate class, and a full one withholds only
// candidates ordering strictly after its last entry — a consequence of
// Entries being the canonical minimum K by (rank, node id). With a merged
// k, a short result certifies that nothing the query withheld can reach
// the merged top k, and a full one that each withheld candidate orders
// strictly after its last entry or cannot reach the merged top k: either
// way the floor is as good as the canonical one to a merge into that top
// k.
func (r *Result) Floor() Floor {
	if len(r.Entries) < r.K {
		return Floor{Exhausted: true}
	}
	last := r.Entries[len(r.Entries)-1]
	return Floor{Rank: last.Rank, Node: last.Node}
}

// Clears reports whether the floor certifies that every withheld
// candidate orders strictly after cutoff in (rank, node id) order — the
// condition under which a shard that returned this floor cannot change a
// merged result whose k-th entry is cutoff.
func (f Floor) Clears(cutoff rank.Entry) bool {
	if f.Exhausted {
		return true
	}
	if f.Rank != cutoff.Rank {
		return f.Rank > cutoff.Rank
	}
	return f.Node >= cutoff.Node
}

// KRank returns the largest rank in the result (the k-th top rank), or 0
// for an empty result.
func (r *Result) KRank() int32 {
	if len(r.Entries) == 0 {
		return 0
	}
	return r.Entries[len(r.Entries)-1].Rank
}

// Nodes returns just the result node ids, in result order.
func (r *Result) Nodes() []int32 {
	out := make([]int32, len(r.Entries))
	for i, e := range r.Entries {
		out[i] = e.Node
	}
	return out
}

// String renders a compact human-readable summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reverse %d-ranks of %d:", r.K, r.Query)
	for _, e := range r.Entries {
		fmt.Fprintf(&b, " %d(rank %d)", e.Node, e.Rank)
	}
	return b.String()
}

// kRankInf is the kRank value while the result heap is not yet full: no
// candidate can be pruned until k results exist.
const kRankInf = int32(math.MaxInt32)

// resultHeap maintains the current best-k (node, rank) entries as a
// max-heap ordered by (rank, node id): the root is the entry that would be
// evicted next. The (rank, node) tie-break makes every engine
// deterministic.
type resultHeap struct {
	k       int
	entries []rank.Entry
}

// reset empties the heap for a query of size k. n, the graph's node
// count, caps the preallocation: no heap ever holds more entries than
// there are nodes, so an absurd k costs no memory.
func (h *resultHeap) reset(k, n int) {
	h.k = k
	if c := min(k, n); cap(h.entries) < c {
		h.entries = make([]rank.Entry, 0, c)
	}
	h.entries = h.entries[:0]
}

// kRank returns the current pruning threshold: the worst retained rank once
// k entries exist, +inf before that.
func (h *resultHeap) kRank() int32 {
	if len(h.entries) < h.k {
		return kRankInf
	}
	return h.entries[0].Rank
}

func worse(a, b rank.Entry) bool {
	if a.Rank != b.Rank {
		return a.Rank > b.Rank
	}
	return a.Node > b.Node
}

// offer inserts (node, r), evicting the worst entry when full. It reports
// whether the entry was retained.
func (h *resultHeap) offer(node, r int32) bool {
	e := rank.Entry{Node: node, Rank: r}
	if len(h.entries) < h.k {
		h.entries = append(h.entries, e)
		h.up(len(h.entries) - 1)
		return true
	}
	if !worse(h.entries[0], e) {
		return false
	}
	h.entries[0] = e
	h.down(0)
	return true
}

func (h *resultHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h.entries[i], h.entries[p]) {
			break
		}
		h.entries[i], h.entries[p] = h.entries[p], h.entries[i]
		i = p
	}
}

func (h *resultHeap) down(i int) {
	n := len(h.entries)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && worse(h.entries[r], h.entries[l]) {
			c = r
		}
		if !worse(h.entries[c], h.entries[i]) {
			return
		}
		h.entries[i], h.entries[c] = h.entries[c], h.entries[i]
		i = c
	}
}

// sorted returns the entries ordered by (rank, node id) ascending.
func (h *resultHeap) sorted() []rank.Entry {
	out := append([]rank.Entry(nil), h.entries...)
	rank.SortEntries(out)
	return out
}

// len returns the number of retained entries.
func (h *resultHeap) len() int { return len(h.entries) }

// sortedInto is sorted writing into a caller-provided buffer (batch mode's
// chunked entry slab) instead of a fresh allocation. buf must be empty
// with capacity len().
func (h *resultHeap) sortedInto(buf []rank.Entry) []rank.Entry {
	out := append(buf, h.entries...)
	rank.SortEntries(out)
	return out
}
