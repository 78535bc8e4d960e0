package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/obs"
	"rkranks/internal/rank"
	"rkranks/internal/ridx"
	"rkranks/internal/sssp"
)

// Engine evaluates reverse k-ranks queries against one graph. It owns
// reusable per-query workspaces (Dijkstra searches plus epoch-stamped
// node arrays), so queries after the first allocate nothing.
//
// An Engine is not safe for concurrent use; create one per goroutine. An
// attached index is both read and written by Indexed queries (that is the
// point of the dynamic index), and any number of engines may share one:
// a ridx.ShardedIndex is safe for concurrent use, and a Pool built with
// NewPoolWithIndex shares one between all its engines.
type Engine struct {
	g      *graph.Graph
	opts   Options
	idx    ridx.Index
	labels *hub.Labels // from Options.Labels; enables HubLabel queries

	tree *sssp.Search // transpose traversal from q (SDS-tree)
	rf   *refiner     // refinement workspace (see refiner.go)

	epoch   uint32
	zdepth  []int32 // depth of the deepest distance-0 ancestor (lazily allocated; see noteZeroDepth)
	lcount  []int32 // Lemma-4 visit counters
	lstamp  []uint32
	nrank   []int32 // recorded rank (or lower bound) of processed nodes
	nstamp  []uint32
	ostamp  []uint32 // nodes already offered to the result heap
	lbseen  []uint32 // hub-label scan dedupe stamps (lazily allocated)
	lbepoch uint32   // epoch for lbseen; bumped once per label scan
	scratch []settleRec
	rev     []rank.Entry // copy of the query node's Reverse Rank Dictionary list

	heap   resultHeap
	shadow resultHeap // best merged-k class ranks learned (merged-k queries only)
	stats  Stats
	q      int32
	k      int
	mk     int // the query's merged k, 0 for none (see WithMergedK)

	// arena is the shared-traversal batch scratch, non-nil only between
	// BeginBatch/EndBatch (see batchexec.go). batch retains the allocation
	// across batches so a pool slot's arena is built once.
	arena *batchArena
	batch *batchArena

	tracing  bool
	traceLog []TraceEvent

	// stop is the current query's cancellation flag, non-nil only for
	// QueryContext calls whose context can actually be canceled. It is a
	// fresh allocation per such query so a context firing late (after the
	// query returned) writes to a stale object instead of poisoning the
	// next query. Refiners poll it on a coarse settle cadence; the
	// traversal loops poll it per pop.
	stop *atomic.Bool

	// per-query feature switches
	bounds   Bounds
	pruning  bool // try prune before refining a candidate (all but Static)
	labeling bool // prune on hub-label bounds (HubLabel)
	useLc    bool // maintain lcount during refinements
	indexing bool // consult and feed the index (Indexed)
	merged   bool // bound foreign candidates and keep the shadow heap
	zeroTied bool // a node besides q sits at distance 0 from q
}

type settleRec struct {
	node int32
	dist float64
	rank int32
}

// NewEngine returns an engine over g with the given options.
func NewEngine(g *graph.Graph, opts Options) *Engine {
	n := g.N()
	if opts.Candidates != nil && len(opts.Candidates) != n {
		panic(fmt.Sprintf("core: Candidates length %d != n %d", len(opts.Candidates), n))
	}
	if opts.ClusterCandidates != nil && len(opts.ClusterCandidates) != n {
		panic(fmt.Sprintf("core: ClusterCandidates length %d != n %d", len(opts.ClusterCandidates), n))
	}
	if opts.Counted != nil && len(opts.Counted) != n {
		panic(fmt.Sprintf("core: Counted length %d != n %d", len(opts.Counted), n))
	}
	if l := opts.Labels; l != nil {
		if l.N() != n {
			panic(fmt.Sprintf("core: labels cover %d nodes, graph has %d", l.N(), n))
		}
		if l.Directed() != g.Directed() {
			panic(fmt.Sprintf("core: labels directed=%v, graph directed=%v", l.Directed(), g.Directed()))
		}
	}
	return &Engine{
		g:      g,
		opts:   opts,
		labels: opts.Labels,
		tree:   sssp.New(g),
		rf:     newRefiner(g),
		lcount: make([]int32, n),
		lstamp: make([]uint32, n),
		nrank:  make([]int32, n),
		nstamp: make([]uint32, n),
		ostamp: make([]uint32, n),
	}
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Options returns the engine's options.
func (e *Engine) Options() Options { return e.opts }

// SetIndex attaches (or detaches, with nil) the dynamic index used by
// Indexed queries. The index must cover the engine's graph.
func (e *Engine) SetIndex(ix ridx.Index) {
	if ix != nil && ix.N() != e.g.N() {
		panic(fmt.Sprintf("core: index covers %d nodes, graph has %d", ix.N(), e.g.N()))
	}
	e.idx = ix
}

// Index returns the attached index, if any.
func (e *Engine) Index() ridx.Index { return e.idx }

// Query runs algorithm a for query node q with result size k.
func (e *Engine) Query(a Algorithm, q int32, k int) (*Result, error) {
	return e.QueryContext(context.Background(), a, q, k)
}

// QueryContext is Query with cancellation: when ctx is canceled or its
// deadline passes, the traversal and the in-flight rank refinement stop
// within a bounded number of settles and the call returns ctx's error. A
// canceled query leaves the engine (and any shared index) in a consistent
// state — cancellation discards work, it never applies partial results —
// so the engine is immediately reusable.
//
// A merged k on ctx (WithMergedK) lets a cluster shard prune as tightly
// as one node would; see WithMergedK for what the result then certifies.
func (e *Engine) QueryContext(ctx context.Context, a Algorithm, q int32, k int) (*Result, error) {
	if err := validateRequest(a, k); err != nil {
		return nil, err
	}
	if err := e.checkArgs(q); err != nil {
		return nil, err
	}
	mk := MergedK(ctx)
	if mk != 0 && mk < k {
		return nil, fmt.Errorf("core: merged k=%d below k=%d: %w", mk, k, ErrInvalidK)
	}
	if a == Indexed {
		if e.idx == nil {
			return nil, fmt.Errorf("core: Indexed query requires SetIndex: %w", ErrIndexRequired)
		}
		if k > e.idx.MaxK() {
			return nil, fmt.Errorf("core: k=%d exceeds index K=%d: %w", k, e.idx.MaxK(), ErrInvalidK)
		}
		if mk > e.idx.MaxK() {
			return nil, fmt.Errorf("core: merged k=%d exceeds index K=%d: %w", mk, e.idx.MaxK(), ErrInvalidK)
		}
	}
	if a == HubLabel && e.labels == nil {
		return nil, fmt.Errorf("core: HubLabel query requires Options.Labels: %w", ErrLabelsRequired)
	}
	e.stop = nil
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: query not started: %w", err)
		}
		flag := new(atomic.Bool)
		e.stop = flag
		defer context.AfterFunc(ctx, func() { flag.Store(true) })()
	}
	// Engine time is one span: label.scan for HubLabel (label pruning
	// interleaved with fallback refinement), engine.refine otherwise. The
	// span machinery is nil-safe and allocation-free, so an untraced
	// context costs one Value lookup and the traced path stays inside the
	// steady-state alloc budget (see TestTracedQueryAllocations).
	tr := obs.FromContext(ctx)
	stage := obs.StageEngineRefine
	if a == HubLabel {
		stage = obs.StageLabelScan
	}
	sp := tr.Begin(stage)
	var res *Result
	e.mk = mk
	if a == Naive {
		res = e.naive(q, k)
	} else {
		res = e.sdsTree(a, q, k)
	}
	if sp != nil {
		sp.SetAttr("refinements", int64(e.stats.Refinements))
		sp.SetAttr("pruned_by_bound", int64(e.stats.PrunedByBound))
		if a == HubLabel {
			sp.SetAttr("label_pruned", int64(e.stats.LabelPruned))
			sp.SetAttr("label_fallbacks", int64(e.stats.LabelFallbacks))
		} else {
			sp.SetAttr("index_hits", int64(e.stats.IndexHits))
			sp.SetAttr("tree_settled", int64(e.stats.TreeSettled))
		}
		tr.End(sp)
	}
	if e.stopped() {
		return nil, fmt.Errorf("core: query canceled: %w", ctx.Err())
	}
	return res, nil
}

// stopped reports whether the current query's context has been canceled.
func (e *Engine) stopped() bool {
	return e.stop != nil && e.stop.Load()
}

func (e *Engine) checkArgs(q int32) error {
	if q < 0 || int(q) >= e.g.N() {
		return fmt.Errorf("core: query node %d out of range [0,%d): %w", q, e.g.N(), ErrInvalidQueryNode)
	}
	if e.opts.Counted != nil && !e.opts.Counted[q] {
		return fmt.Errorf("core: bichromatic query node %d is not in the counted class V2: %w", q, ErrInvalidQueryNode)
	}
	return nil
}

// begin resets per-query state.
func (e *Engine) begin(q int32, k int, a Algorithm) {
	e.epoch++
	if e.epoch == 0 {
		clear(e.lstamp)
		clear(e.nstamp)
		clear(e.ostamp)
		e.epoch = 1
	}
	e.q = q
	e.k = k
	n := e.g.N()
	e.heap.reset(k, n)
	// Naive refines every candidate anyway, and without a mask there are
	// no foreign candidates: the merged k changes nothing there.
	e.merged = e.mk > 0 && e.opts.Candidates != nil && a != Naive
	if e.merged {
		e.shadow.reset(e.mk, n)
	}
	e.zeroTied = false
	e.stats = Stats{}
	e.traceLog = nil
	e.bounds = e.opts.effectiveBounds(e.g)
	e.pruning = a != Naive && a != Static
	e.labeling = a == HubLabel
	e.useLc = e.pruning && e.bounds&BoundCount != 0
	e.indexing = a == Indexed
	e.rf.prepare(q, e.opts.Counted, e.opts.DisableDistanceCutoff, e.stop)
}

func (e *Engine) candidate(v int32) bool {
	return e.opts.Candidates == nil || e.opts.Candidates[v]
}

// foreign reports whether v, which is not one of the engine's own
// candidates, is another shard's candidate of a merged-k query: a member
// of the cluster's class whose rank bounds its subtree and enters the
// shadow heap, but never the result.
func (e *Engine) foreign(v int32) bool {
	return e.merged && (e.opts.ClusterCandidates == nil || e.opts.ClusterCandidates[v])
}

// kRank is the pruning threshold: the result heap's k-th rank, or the
// shadow heap's merged-k-th rank when that is lower. A bound strictly
// above it means the node can neither enter this engine's top k nor the
// merged top k of the cluster.
func (e *Engine) kRank() int32 {
	t := e.heap.kRank()
	if e.merged {
		t = min(t, e.shadow.kRank())
	}
	return t
}

func (e *Engine) counted(v int32) bool {
	return e.opts.Counted == nil || e.opts.Counted[v]
}

// descBound converts a certified lower bound on Rank(v, q) into one valid
// for every SDS-tree descendant of v (generalized Lemma 1).
//
// In monochromatic graphs the bound transfers unchanged. In bichromatic
// mode, when v itself is NOT in the counted class, the transfer loses
// exactly one: a descendant w can be a counted member of v's
// strictly-closer set while v contributes nothing to w's (the set
// S_v \ {w} injects into S_w, but v itself does not), so
// Rank(w) >= Rank(v) - 1 is all Lemma 1 guarantees. The loss applies once
// per bound origin — not per hop — because S_v \ {w} injects into S_w for
// a descendant at any depth; recorded descendant bounds therefore pass
// through intermediate nodes unchanged (see setDescBound/passThrough).
// The paper does not discuss this case; applying the unadjusted bound can
// wrongly prune true results (caught by the randomized bichromatic oracle
// test), while re-applying it per hop destroys pruning on long
// candidate-class chains such as road networks.
func (e *Engine) descBound(v, bound int32) int32 {
	if e.opts.Counted == nil || e.opts.Counted[v] {
		return bound
	}
	if bound <= 1 {
		return 0
	}
	return bound - 1
}

// setDescBound records a certified lower bound on the rank of every
// SDS-tree descendant of v, consulted by its children at dequeue time.
func (e *Engine) setDescBound(v, bound int32) {
	e.nrank[v] = bound
	e.nstamp[v] = e.epoch
}

// parentBound returns the certified lower bound that v's SDS-tree parent
// imposes on Rank(v, q): the parent's recorded descendant bound (0 when
// the parent is the query node itself).
func (e *Engine) parentBound(v int32) int32 {
	p := e.tree.Parent(v)
	if p < 0 || p == e.q {
		return 0
	}
	if e.nstamp[p] != e.epoch {
		return 0
	}
	return e.nrank[p]
}

func (e *Engine) lcountOf(v int32) int32 {
	if e.lstamp[v] != e.epoch {
		return 0
	}
	return e.lcount[v]
}

func (e *Engine) bumpLcount(v int32) {
	if e.lstamp[v] != e.epoch {
		e.lstamp[v] = e.epoch
		e.lcount[v] = 1
		return
	}
	e.lcount[v]++
}

// offer records an exact (node, rank) pair of a class member, at most
// once per node per query (the indexed engine can discover a node's rank
// both from the seeded dictionary and from the traversal): into the
// shadow heap of a merged-k query, and into the result heap when node is
// one of the engine's own candidates. It reports whether the result heap
// kept the pair.
func (e *Engine) offer(node, r int32) bool {
	if e.ostamp[node] == e.epoch {
		return false
	}
	e.ostamp[node] = e.epoch
	if e.merged {
		e.shadow.offer(node, r)
	}
	return e.candidate(node) && e.heap.offer(node, r)
}

// finish assembles the Result. In batch mode the Result and its entries
// come from the arena's chunked slabs — one allocation per chunk instead
// of two per query — because results escape to the caller and must not
// alias engine scratch.
func (e *Engine) finish() *Result {
	a := e.arena
	var entries []rank.Entry // nil when empty, like sorted()
	if a == nil {
		entries = e.heap.sorted()
	} else if n := e.heap.len(); n > 0 {
		entries = e.heap.sortedInto(a.entryBuf(n))
	}
	if e.merged {
		// Own entries ranked past the shadow heap's merged-k-th rank
		// cannot reach the merged top k; withhold them too (WithMergedK).
		s := e.shadow.kRank()
		for len(entries) > 0 && entries[len(entries)-1].Rank > s {
			entries = entries[:len(entries)-1]
		}
	}
	if a != nil {
		res := a.newResult()
		*res = Result{Query: e.q, K: e.k, Entries: entries, Stats: e.stats, Trace: e.traceLog}
		return res
	}
	return &Result{Query: e.q, K: e.k, Entries: entries, Stats: e.stats, Trace: e.traceLog}
}

// refineAndSettle runs the refine/offer/expand tail of the SDS-tree
// traversal for a dequeued candidate.
func (e *Engine) refineAndSettle(v int32, d float64) {
	bound, exact := e.refine(v, d)
	e.settleRefined(v, d, bound, exact)
}

// settleRefined applies the result-heap, descendant-bound, and expansion
// decisions for a refined candidate. Subtree pruning uses the
// descendant-transferred bound (see descBound), not v's own.
func (e *Engine) settleRefined(v int32, d float64, bound int32, exact bool) {
	db := e.descBound(v, bound)
	e.setDescBound(v, db)
	if exact {
		e.offer(v, bound)
	}
	// Skipping expansion is sound only once descendants provably cannot
	// enter the canonical result: they rank at least descBound(v, bound),
	// so the subtree is cut exactly when that bound strictly exceeds
	// kRank. The comparison is tie-inclusive (db <= kRank expands)
	// because a descendant tying the k-th rank can still tie-break in by
	// node id — the canonical-result invariant the cluster merge needs.
	// In monochromatic graphs db == bound, matching Algorithm 1.
	expand := db <= e.kRank()
	if expand {
		e.tree.Expand(v, d)
	}
	if e.tracing {
		action := TraceRefined
		if !exact {
			action = TraceRefineAborted
		}
		e.trace(v, d, action, bound, expand)
	}
}

// refine computes Rank(p, q) by a partial Dijkstra from p and applies its
// side effects (see refiner.run for the search itself and applyRefineLog
// for the effects). dpq is d(p, q) when known, +Inf otherwise. Returns the
// exact rank with exact=true, or a certified lower bound with exact=false
// (kRank abort), or rank.Unreachable when p cannot reach q.
func (e *Engine) refine(p int32, dpq float64) (bound int32, exact bool) {
	e.stats.Refinements++
	kRank := e.kRank()
	if a := e.arena; a != nil {
		// Batch mode: try to resolve this refinement from a settle log a
		// previous query in the batch stored for p. A successful replay
		// yields the decision triple and log prefix a fresh serial run
		// would have produced byte-for-byte (see batchexec.go), so the
		// applied side effects are identical; only RefineSettled differs
		// (a replay settles nothing: the effort counters describe work
		// actually performed).
		cut := refineCutoff(dpq, e.opts.DisableDistanceCutoff)
		if out, log, ok := a.replay(p, e.q, dpq, cut, kRank); ok {
			a.shared++
			e.stats.SharedTraversals++
			if out.aborted {
				e.stats.RefineAborted++
			}
			e.applyRefineLog(p, log, out.bound, out.exact, out.stopLevel)
			return out.bound, out.exact
		}
	}
	if a := e.arena; a != nil && a.hot(p) {
		// Hot candidate: the batch keeps missing p's stored coverage, so
		// settle its whole component once. The complete log answers this
		// refinement (scanSettleLog with this query's stop rules — the
		// exact decision a bounded run would reach) and, once stored,
		// every later refinement of p in the batch.
		var out refineResult
		out, e.scratch = e.rf.runExhaustive(p, e.scratch[:0])
		e.stats.RefineSettled += out.settled
		if out.stopped {
			return 0, false
		}
		a.store(p, math.Inf(1), true, e.scratch)
		cut := refineCutoff(dpq, e.opts.DisableDistanceCutoff)
		res, log, _ := scanSettleLog(e.scratch, e.q, cut, kRank, true, math.Inf(1))
		if res.aborted {
			e.stats.RefineAborted++
		}
		e.applyRefineLog(p, log, res.bound, res.exact, res.stopLevel)
		return res.bound, res.exact
	}
	var out refineResult
	out, e.scratch = e.rf.run(p, dpq, kRank, e.scratch[:0])
	e.stats.RefineSettled += out.settled
	if out.stopped {
		// The query's context was canceled mid-refinement: the truncated
		// log must not feed the Lemma-4 counters or the index (its stop
		// point is meaningless), so apply nothing. Returning the trivial
		// lower bound keeps any state the caller still touches sound; the
		// traversal loop notices the flag and abandons the query.
		return 0, false
	}
	if out.aborted {
		e.stats.RefineAborted++
	}
	if a := e.arena; a != nil {
		a.spend(p, out.settled)
		exhausted := !out.exact && !out.aborted
		a.store(p, refineCutoff(dpq, e.opts.DisableDistanceCutoff), exhausted, e.scratch)
	}
	e.applyRefineLog(p, e.scratch, out.bound, out.exact, out.stopLevel)
	return out.bound, out.exact
}

// applyRefineLog applies the side effects of a refinement of p, gated by
// the engine's per-query switches:
//
//   - useLc: every settled counted node proven strictly closer to p than q
//     gets its Lemma-4 visit counter bumped;
//   - indexing: every settled counted node's exact rank from p feeds the
//     Reverse Rank Dictionary, and p's Check Dictionary bound is raised.
//
// Nodes already popped from the SDS-tree never read their counter again —
// and for them the lemma's d(p,q) <= d(t,q) precondition no longer holds —
// so they are skipped (Lemma 3/4).
func (e *Engine) applyRefineLog(p int32, log []settleRec, bound int32, exact bool, stopLevel float64) {
	if !e.useLc && !e.indexing {
		return
	}
	for _, rec := range log {
		if rec.node == e.q {
			continue
		}
		if e.useLc && rec.dist < stopLevel && !e.tree.Settled(rec.node) {
			e.bumpLcount(rec.node)
		}
		if e.indexing {
			e.idx.Offer(rec.node, p, rec.rank)
		}
	}
	if e.indexing {
		if exact {
			e.idx.Offer(e.q, p, bound)
		}
		// Any node not settled by this search ranks at least as high
		// as the last settled one (see ridx package docs). The raise
		// must come after the Offers above: on a shared concurrent
		// index, a reader that sees this bound must also see the
		// witness entries it exempts (readers load Check first).
		e.idx.RaiseCheck(p, bound)
	}
}
