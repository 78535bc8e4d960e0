package hub

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"

	"rkranks/internal/graph"
	"rkranks/internal/parallel"
	"rkranks/internal/sssp"
)

// This file extends the package from hub *selection* to full 2-hop label
// construction (the ReHub direction): a pruned landmark labeling built
// over the graph's CSR views, stored in flat int32/float64 slabs, and
// queryable without touching the graph. Every label entry's distance is
// the length of a real path, so label-derived distances are upper bounds
// on true shortest-path distances — exact whenever one endpoint is a root
// (the pruned-labeling cover invariant) — which is what lets the HubLabel
// engine (internal/core) use label scans as certified rank lower bounds
// without ever risking the canonical result.

// labEntry is one in-construction label entry: a hub ordinal (position in
// the root order) and the shortest-path distance to or from that hub.
// Ordinals, not node ids, so entries appended in commit order are already
// sorted and two labels merge with a single linear pass.
type labEntry struct {
	ord  int32
	dist float64
}

// Labels is an immutable pruned 2-hop hub labeling. For every node u it
// stores an out-label (hubs h with d(u, h)) and an in-label (hubs h with
// d(h, u)); for undirected graphs the two are one shared slab. It also
// keeps, per hub, the inverted in-list — every node carrying that hub in
// its in-label, sorted by distance — which is the access path of the
// HubLabel engine's rank scans. Labels are read-only after construction
// and safe to share across any number of engines and pools.
type Labels struct {
	n        int32
	directed bool
	hubs     []int32 // root node ids, in build (priority) order
	hubOrd   []int32 // node id -> ordinal in hubs, -1 for non-roots

	// Out-labels in CSR layout: node u's entries occupy
	// outHub/outDist[outOff[u]:outOff[u+1]], sorted by (distance, hub
	// ordinal) ascending — distance-major so the engine's threshold scans
	// stop at the first too-far hub instead of filtering all of them.
	outOff  []int32
	outHub  []int32
	outDist []float64

	// In-labels, same layout. Alias the out slabs when undirected.
	inOff  []int32
	inHub  []int32
	inDist []float64

	// Inverted in-lists: hub ordinal j's entries occupy
	// invNode/invDist[invOff[j]:invOff[j+1]], sorted by (dist, node).
	invOff  []int32
	invNode []int32
	invDist []float64
}

// waveSize is the number of root searches batched per parallel wave. It is
// a constant — NOT derived from the worker count — so the wave partition,
// and with it every prune decision and the final labeling, is identical
// regardless of how many workers run the searches.
const waveSize = 32

// BuildLabels constructs a pruned 2-hop labeling over g rooted at roots,
// in order: earlier roots prune later searches, so roots should arrive in
// priority order (see Order), most central first. workers bounds the
// goroutines running root searches (<= 0 uses GOMAXPROCS); the result is
// byte-identical for every worker count. With len(roots) == g.N() the
// labeling is complete (label distances equal true distances for every
// reachable pair); smaller root sets trade coverage for footprint.
func BuildLabels(g *graph.Graph, roots []int32, workers int) (*Labels, error) {
	n := g.N()
	if len(roots) == 0 {
		return nil, fmt.Errorf("hub: BuildLabels needs at least one root")
	}
	hubOrd := make([]int32, n)
	for i := range hubOrd {
		hubOrd[i] = -1
	}
	for j, r := range roots {
		if r < 0 || int(r) >= n {
			return nil, fmt.Errorf("hub: root %d out of range [0,%d)", r, n)
		}
		if hubOrd[r] >= 0 {
			return nil, fmt.Errorf("hub: duplicate root %d", r)
		}
		hubOrd[r] = int32(j)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	b := &labelBuilder{
		g:        g,
		directed: g.Directed(),
		roots:    roots,
		out:      make([][]labEntry, n),
	}
	if b.directed {
		b.in = make([][]labEntry, n)
	} else {
		b.in = b.out
	}
	b.fwdKept = make([][]nodeDist, len(roots))

	// Per-worker search state, reused across waves.
	if workers > waveSize {
		workers = waveSize
	}
	states := make([]*searchState, workers)
	for i := range states {
		states[i] = newSearchState(g, len(roots))
	}

	scratch := newSearchState(g, len(roots)) // serial commit-time re-filter
	results := make([]waveResult, waveSize)
	for lo := 0; lo < len(roots); lo += waveSize {
		wave := roots[lo:min(lo+waveSize, len(roots))]
		// Parallel phase: every root in the wave searches against the
		// labels committed by previous waves only — a frozen snapshot, so
		// scheduling cannot influence what any search sees.
		parallel.For(min(workers, len(wave)), len(wave), 1, func(w, i int) {
			results[i] = b.searchRoot(states[w], wave[i])
		})
		// Serial phase: commit in root order, re-filtering each root's
		// survivors against the earlier roots of this same wave, which the
		// parallel searches could not see. Commit order is fixed, so the
		// labeling is deterministic for any worker count.
		for i := range wave {
			b.commit(scratch, int32(lo), int32(lo+i), results[i])
			results[i] = waveResult{}
		}
	}

	return b.assemble(hubOrd, workers)
}

// nodeDist is one settled (node, distance) pair of a root search.
type nodeDist struct {
	node int32
	dist float64
}

// waveResult carries one root search's surviving settles to the commit
// phase: fwd holds d(root, v) pairs (in-label candidates), rev holds
// d(v, root) pairs (out-label candidates; nil for undirected graphs,
// where fwd serves both directions).
type waveResult struct {
	fwd []nodeDist
	rev []nodeDist
}

// searchState is the per-worker workspace: a Dijkstra search plus a dense
// ordinal-indexed distance array for O(|label|) cover tests.
type searchState struct {
	s       *sssp.Search
	hubDist []float64 // ordinal -> distance from/to the current root
	touched []int32   // ordinals written into hubDist, for cheap reset
}

func newSearchState(g *graph.Graph, hubs int) *searchState {
	st := &searchState{
		s:       sssp.NewLite(g),
		hubDist: make([]float64, hubs),
	}
	for i := range st.hubDist {
		st.hubDist[i] = math.Inf(1)
	}
	return st
}

// load primes hubDist from a root's own label (the left leg of every
// 2-hop cover test); release undoes it.
func (st *searchState) load(label []labEntry) {
	for _, e := range label {
		st.hubDist[e.ord] = e.dist
		st.touched = append(st.touched, e.ord)
	}
}

func (st *searchState) release() {
	for _, ord := range st.touched {
		st.hubDist[ord] = math.Inf(1)
	}
	st.touched = st.touched[:0]
}

type labelBuilder struct {
	g        *graph.Graph
	directed bool
	roots    []int32
	out      [][]labEntry // out-label under construction, per node
	in       [][]labEntry // in-label; aliases out when undirected
	fwdKept  [][]nodeDist // committed forward survivors per root (inverted lists)
}

// searchRoot runs the pruned Dijkstra(s) of one root against the labels
// committed by previous waves. Read-only with respect to builder state.
func (b *labelBuilder) searchRoot(st *searchState, root int32) waveResult {
	var res waveResult
	res.fwd = b.prunedSearch(st, root, false, nil)
	if b.directed {
		res.rev = b.prunedSearch(st, root, true, nil)
	}
	return res
}

// prunedSearch settles nodes from root in distance order, skipping (and
// not expanding through) every node the committed labeling already covers
// at that distance — the standard pruned-landmark-labeling rule. reverse
// selects the transpose traversal (out-label construction on directed
// graphs). When out is non-nil the survivors are appended to it (commit-
// time refiltering reuses the same cover test through coveredAt).
func (b *labelBuilder) prunedSearch(st *searchState, root int32, reverse bool, out []nodeDist) []nodeDist {
	// Left leg of the cover test: for a forward search, paths root -> r ->
	// v need r in the root's OUT-label and v's IN-label; transposed for a
	// reverse search.
	rootLabel, nodeSide := b.out[root], b.in
	if reverse {
		rootLabel, nodeSide = b.in[root], b.out
	}
	st.load(rootLabel)
	defer st.release()
	if reverse {
		st.s.ResetReverse(root)
	} else {
		st.s.Reset(root)
	}
	for {
		v, d, ok := st.s.Pop()
		if !ok {
			return out
		}
		if covered(st.hubDist, nodeSide[v], d) {
			continue // pruned: neither labeled nor expanded
		}
		out = append(out, nodeDist{v, d})
		st.s.Expand(v, d)
	}
}

// covered reports whether some committed hub r certifies a 2-hop path of
// length <= d: hubDist holds the root-side leg per ordinal, label the
// node-side legs. Prune-on-equality keeps labels minimal and preserves
// the cover invariant (the certifying path is itself no longer than d).
func covered(hubDist []float64, label []labEntry, d float64) bool {
	for _, e := range label {
		if hubDist[e.ord]+e.dist <= d {
			return true
		}
	}
	return false
}

// coveredSince is covered restricted to the label's entries with ordinal
// >= lo. Labels under construction are sorted by ordinal, so those entries
// form a suffix.
func coveredSince(hubDist []float64, label []labEntry, lo int32, d float64) bool {
	return covered(hubDist, since(label, lo), d)
}

// since returns the suffix of an ordinal-sorted label holding its entries
// with ordinal >= lo.
func since(label []labEntry, lo int32) []labEntry {
	i := len(label)
	for i > 0 && label[i-1].ord >= lo {
		i--
	}
	return label[i:]
}

// commit re-filters one root's wave survivors against the entries the
// earlier roots of its wave (ordinals lo up to ord) committed, and appends
// what remains to the per-node labels. Runs serially in root order; every
// committed entry has a strictly smaller ordinal than ord, so appended
// entries keep each label sorted by ordinal for free.
func (b *labelBuilder) commit(st *searchState, lo, ord int32, res waveResult) {
	root := b.roots[ord]

	// The root's search already tested every survivor, at this same
	// distance, against all entries with ordinal < lo and found it
	// uncovered; only the suffix this wave appended can cover it now.
	st.load(since(b.out[root], lo))
	for _, nd := range res.fwd {
		if coveredSince(st.hubDist, b.in[nd.node], lo, nd.dist) {
			continue
		}
		b.in[nd.node] = append(b.in[nd.node], labEntry{ord, nd.dist})
		b.fwdKept[ord] = append(b.fwdKept[ord], nd)
	}
	st.release()

	if !b.directed {
		return
	}
	// Same for the reverse search: it tested each survivor against every
	// entry with ordinal < lo, so only this wave's suffix is left to check.
	st.load(since(b.in[root], lo))
	for _, nd := range res.rev {
		if coveredSince(st.hubDist, b.out[nd.node], lo, nd.dist) {
			continue
		}
		b.out[nd.node] = append(b.out[nd.node], labEntry{ord, nd.dist})
	}
	st.release()
}

// assemble flattens the per-node label slices into the final slabs. The
// offsets come first, serially; then workers goroutines sort each node's
// and each hub's span and write it straight into its place in the slabs.
func (b *labelBuilder) assemble(hubOrd []int32, workers int) (*Labels, error) {
	n := b.g.N()
	l := &Labels{
		n:        int32(n),
		directed: b.directed,
		hubs:     append([]int32(nil), b.roots...),
		hubOrd:   hubOrd,
	}
	var err error
	if l.outOff, err = offsets(b.out); err != nil {
		return nil, err
	}
	l.outHub, l.outDist = make([]int32, l.outOff[n]), make([]float64, l.outOff[n])
	if b.directed {
		if l.inOff, err = offsets(b.in); err != nil {
			return nil, err
		}
		l.inHub, l.inDist = make([]int32, l.inOff[n]), make([]float64, l.inOff[n])
	} else {
		l.inOff, l.inHub, l.inDist = l.outOff, l.outHub, l.outDist
	}
	// Inverted in-lists, sorted by (dist, node) so the engine's threshold
	// scans are prefix scans. The forward survivors arrive in settle order
	// (distance ascending); the sort only canonicalizes equal-distance
	// ties by node id.
	if l.invOff, err = offsets(b.fwdKept); err != nil {
		return nil, err
	}
	l.invNode, l.invDist = make([]int32, l.invOff[len(b.roots)]), make([]float64, l.invOff[len(b.roots)])

	// Labels are sorted by (distance, ordinal), see the Labels field docs
	// for why distance-major. Keys are unique within every span, so the
	// order does not depend on the sort algorithm.
	parallel.For(workers, n, 256, func(_, v int) {
		flatten(b.out[v], l.outHub[l.outOff[v]:], l.outDist[l.outOff[v]:])
		if b.directed {
			flatten(b.in[v], l.inHub[l.inOff[v]:], l.inDist[l.inOff[v]:])
		}
	})
	parallel.For(workers, len(b.roots), 1, func(_, j int) {
		kept := b.fwdKept[j]
		slices.SortFunc(kept, func(x, y nodeDist) int {
			if x.dist != y.dist {
				return cmp.Compare(x.dist, y.dist)
			}
			return cmp.Compare(x.node, y.node)
		})
		at := l.invOff[j]
		for i, nd := range kept {
			l.invNode[at+int32(i)] = nd.node
			l.invDist[at+int32(i)] = nd.dist
		}
	})
	return l, nil
}

// offsets returns the CSR offsets of the given spans, refusing a total
// past int32 offsets.
func offsets[E any](spans [][]E) ([]int32, error) {
	off := make([]int32, len(spans)+1)
	total := 0
	for i, s := range spans {
		total += len(s)
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("hub: labeling has more than %d entries in one slab, exceeding int32 offsets", math.MaxInt32)
		}
		off[i+1] = int32(total)
	}
	return off, nil
}

// flatten sorts one node's entries by (distance, ordinal) and writes them
// to the front of hubs and dists.
func flatten(lst []labEntry, hubs []int32, dists []float64) {
	slices.SortFunc(lst, func(x, y labEntry) int {
		if x.dist != y.dist {
			return cmp.Compare(x.dist, y.dist)
		}
		return cmp.Compare(x.ord, y.ord)
	})
	for i, e := range lst {
		hubs[i] = e.ord
		dists[i] = e.dist
	}
}

// N returns the node count of the labeled graph.
func (l *Labels) N() int { return int(l.n) }

// Directed reports the labeled graph's edge orientation.
func (l *Labels) Directed() bool { return l.directed }

// HubCount returns the number of roots.
func (l *Labels) HubCount() int { return len(l.hubs) }

// Hubs returns the root node ids in build (priority) order. The caller
// must not modify the returned slice.
func (l *Labels) Hubs() []int32 { return l.hubs }

// Entries returns the total number of stored label entries (out plus in;
// an undirected labeling's shared slab is counted once).
func (l *Labels) Entries() int64 {
	e := int64(len(l.outHub))
	if l.directed {
		e += int64(len(l.inHub))
	}
	return e
}

// Bytes reports the labeling's memory footprint: every slab it retains,
// the figure /metrics exposes as rkranks_hub_label_bytes.
func (l *Labels) Bytes() int64 {
	b := int64(len(l.hubs))*4 + int64(len(l.hubOrd))*4
	b += int64(len(l.outOff)+len(l.outHub))*4 + int64(len(l.outDist))*8
	if l.directed {
		b += int64(len(l.inOff)+len(l.inHub))*4 + int64(len(l.inDist))*8
	}
	b += int64(len(l.invOff)+len(l.invNode))*4 + int64(len(l.invDist))*8
	return b
}

// OutLabel returns node u's out-label: parallel slices of hub ordinals
// and distances d(u, hub), sorted by (distance, ordinal) ascending.
// Callers must not modify them.
func (l *Labels) OutLabel(u int32) (ords []int32, dists []float64) {
	lo, hi := l.outOff[u], l.outOff[u+1]
	return l.outHub[lo:hi], l.outDist[lo:hi]
}

// InLabel returns node u's in-label: hub ordinals and distances
// d(hub, u), sorted by (distance, ordinal) ascending. Callers must not
// modify the returned slices.
func (l *Labels) InLabel(u int32) (ords []int32, dists []float64) {
	lo, hi := l.inOff[u], l.inOff[u+1]
	return l.inHub[lo:hi], l.inDist[lo:hi]
}

// Inv exposes the raw inverted-list slabs (offsets by hub ordinal, then
// nodes and distances sorted by (distance, node) within each ordinal's
// range). The HubLabel engine's inner loop reads these directly — one
// bounds-checked slice access per probe instead of a HubList call per
// hub. Callers must not modify the returned slices.
func (l *Labels) Inv() (off, nodes []int32, dists []float64) {
	return l.invOff, l.invNode, l.invDist
}

// HubList returns hub ordinal j's inverted in-list — every node t whose
// in-label carries j, with d(hub_j, t) — sorted by (distance, node).
// Callers must not modify the returned slices.
func (l *Labels) HubList(j int32) (nodes []int32, dists []float64) {
	lo, hi := l.invOff[j], l.invOff[j+1]
	return l.invNode[lo:hi], l.invDist[lo:hi]
}

// HubOrdinal returns u's position in the root order, or -1 when u is not
// a root.
func (l *Labels) HubOrdinal(u int32) int32 { return l.hubOrd[u] }

// Dist returns the label-derived distance from u to v: the best 2-hop
// path through a shared hub. It is an upper bound on the true distance
// for every pair, and equal to it (within floating-point tolerance) for
// certified pairs — see Certified. ok is false when the labels share no
// hub, which for a COMPLETE labeling (HubCount == N) means v is
// unreachable from u.
func (l *Labels) Dist(u, v int32) (float64, bool) {
	oh, od := l.OutLabel(u)
	ih, id := l.InLabel(v)
	// Labels are distance-sorted, not ordinal-sorted, so the join goes
	// through a scratch table. Dist serves oracles, tests, and tooling —
	// the engine's hot path reads the inverted slabs instead — so the
	// per-call allocation is fine.
	left := make(map[int32]float64, len(oh))
	for i, h := range oh {
		left[h] = od[i]
	}
	best := math.Inf(1)
	found := false
	for j, h := range ih {
		if dl, ok := left[h]; ok {
			if d := dl + id[j]; d < best {
				best = d
			}
			found = true
		}
	}
	return best, found
}

// Certified reports whether the labeling certifies Dist(u, v) as the
// exact shortest-path distance (up to floating-point rounding): true when
// either endpoint is a root, by the pruned-labeling cover invariant —
// every pruned entry was covered by a 2-hop path of no greater length
// through an earlier root.
func (l *Labels) Certified(u, v int32) bool {
	return l.hubOrd[u] >= 0 || l.hubOrd[v] >= 0
}
