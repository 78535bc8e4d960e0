package ridx

import (
	"cmp"
	"runtime"
	"slices"

	"rkranks/internal/graph"
	"rkranks/internal/parallel"
	"rkranks/internal/rank"
	"rkranks/internal/sssp"
)

// BuildSharded builds the same index as Build using worker goroutines
// (workers <= 0 uses GOMAXPROCS). Each worker runs its share of the hub
// searches into private per-node lists, sorted by (rank, node) and capped
// at K; the workers' lists are then merged per node, in parallel, into
// exact-size lists. The result is identical to Build's for any worker
// count or schedule: entries are exact (u, rank) facts, and the best K of
// all offers are the best K of the workers' best K. Build memory is
// O(workers × n × K), the workers' lists.
func BuildSharded(g *graph.Graph, p BuildParams, workers int) (*ShardedIndex, error) {
	if err := checkParams(p); err != nil {
		return nil, err
	}
	n := g.N()
	ix := NewSharded(n, p.K)
	ix.hubs = p.eligibleHubs()
	// Build's Offer drops a repeated hub's second round of offers; searching
	// each hub once also keeps every (v, hub) pair in one worker's lists.
	hubs := slices.Compact(slices.Sorted(slices.Values(ix.hubs)))
	workers = clampWorkers(workers, len(hubs))
	parts := make([]topK, workers)
	searches := make([]*sssp.Search, workers)
	for w := range parts {
		parts[w] = topK{k: p.K, lists: make([][]rank.Entry, n), check: ix.check}
		searches[w] = sssp.NewLite(g)
	}
	parallel.For(workers, len(hubs), 1, func(w, i int) {
		addHub(&parts[w], searches[w], hubs[i], p.M, p.Counted)
	})
	cursors := make([][]int, workers)
	for w := range cursors {
		cursors[w] = make([]int, workers)
	}
	// No query can see the index before it is returned, so the lists are
	// stored without the stripe locks.
	parallel.For(workers, n, 256, func(w, v int) {
		ix.rrd[v] = merge(parts, v, p.K, cursors[w])
	})
	return ix, nil
}

// topK is one build worker's private Reverse Rank Dictionary. Workers
// search distinct hubs, so a list never sees a node twice, and the Check
// slots a worker raises — its own hubs' — are written by no other worker.
type topK struct {
	k     int
	lists [][]rank.Entry // per node, sorted by (rank, node), at most k long
	check []int32        // the index's Check Dictionary, shared by all workers
}

// Offer inserts (u, r) into v's list by binary search. A full list
// rejects an entry no better than its last one without searching.
func (t *topK) Offer(v, u, r int32) bool {
	list := t.lists[v]
	e := rank.Entry{Node: u, Rank: r}
	if len(list) == t.k && compareEntries(e, list[len(list)-1]) >= 0 {
		return false
	}
	i, _ := slices.BinarySearchFunc(list, e, compareEntries)
	if len(list) < t.k {
		list = append(list, rank.Entry{})
	}
	copy(list[i+1:], list[i:])
	list[i] = e
	t.lists[v] = list
	return true
}

// RaiseCheck raises the Check Dictionary bound for u.
func (t *topK) RaiseCheck(u, bound int32) {
	t.check[u] = max(t.check[u], bound)
}

// merge returns the best k of node v's entries across the workers' lists
// as an exact-size list, nil when there are none. cursors is scratch with
// one slot per worker.
func merge(parts []topK, v, k int, cursors []int) []rank.Entry {
	total := 0
	for w := range parts {
		total += len(parts[w].lists[v])
		cursors[w] = 0
	}
	if total == 0 {
		return nil
	}
	out := make([]rank.Entry, min(total, k))
	for i := range out {
		best := -1
		for w := range parts {
			list := parts[w].lists[v]
			if c := cursors[w]; c < len(list) && (best < 0 || compareEntries(list[c], out[i]) < 0) {
				best, out[i] = w, list[c]
			}
		}
		cursors[best]++
	}
	return out
}

// compareEntries orders entries by (rank, node), the order of every list.
func compareEntries(a, b rank.Entry) int {
	return cmp.Or(cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Node, b.Node))
}

// clampWorkers resolves a requested worker count against the hub count:
// <= 0 means GOMAXPROCS, never more workers than hubs, never fewer than 1.
func clampWorkers(workers, hubs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > hubs {
		workers = hubs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
