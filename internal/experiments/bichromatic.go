package experiments

import (
	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/stats"
	"rkranks/internal/workload"
)

// Figure7 reproduces the bichromatic road-network experiment (Figure 7 a-b):
// reverse k-ranks queries where the query node is a store and the results
// are community (road) nodes, comparing Static, Dynamic, and Dynamic+Index
// over k. The paper's observations: for small k the dynamic machinery's
// overhead can exceed its savings, and on this sparse graph the index is
// much more effective than on the dense social graphs.
func (r *Runner) Figure7() ([]*stats.Table, error) {
	g, stores := r.Road()
	candidates, counted := gen.StoreClasses(g.N(), stores)
	opts := core.Options{Candidates: candidates, Counted: counted}

	queryPool := workload.Class(counted)
	queries := workload.RandomFrom(queryPool, r.cfg.Queries, r.cfg.Seed+23)

	// Hubs for the bichromatic index are candidate-side nodes; rank lists
	// count only store nodes, exactly like query-time refinements.
	ix, _, err := r.buildIndex(g, r.cfg.HubFrac, r.cfg.IndexFrac, r.cfg.Strategy, candidates, counted)
	if err != nil {
		return nil, err
	}

	eng := core.NewEngine(g, opts)
	t := stats.NewTable("Figure 7: bichromatic reverse k-ranks on the road network",
		"k",
		"static time (s)", "dynamic time (s)", "indexed time (s)",
		"static refine", "dynamic refine", "indexed refine")
	ks := r.sortedKs()
	for _, k := range ks {
		if k > len(stores)-1 {
			break // ranks are bounded by the store count
		}
		bs, err := runBatch(eng, core.Static, queries, k)
		if err != nil {
			return nil, err
		}
		bd, err := runBatch(eng, core.Dynamic, queries, k)
		if err != nil {
			return nil, err
		}
		eng.SetIndex(ix.Snapshot().Sharded())
		bi, err := runBatch(eng, core.Indexed, queries, k)
		if err != nil {
			return nil, err
		}
		eng.SetIndex(nil)
		t.Add(k, bs.AvgTime, bd.AvgTime, bi.AvgTime, bs.AvgRefine, bd.AvgRefine, bi.AvgRefine)
	}
	t.Note("%d road nodes, %d stores, %d queries per point", g.N(), len(stores), len(queries))
	return []*stats.Table{t}, nil
}
