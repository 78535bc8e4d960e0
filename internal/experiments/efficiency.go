package experiments

import (
	"fmt"

	"rkranks/internal/core"
	"rkranks/internal/hub"
	"rkranks/internal/stats"
	"rkranks/internal/workload"
)

// Figure6 reproduces the headline efficiency comparison (Figure 6 a-d):
// average query time and average rank-refinement count as functions of k,
// for the Static SDS-tree, Dynamic SDS-tree, and Dynamic+Index engines, on
// the DBLP-like and Epinions-like graphs. One table per dataset, matching
// the figure's four panels (time panel columns + refinement panel columns).
func (r *Runner) Figure6() ([]*stats.Table, error) {
	var out []*stats.Table
	for _, ds := range []string{"dblp", "epinions"} {
		g, err := r.graphByName(ds)
		if err != nil {
			return nil, err
		}
		queries := r.queriesFor(g)
		ix, _, err := r.buildIndex(g, r.cfg.HubFrac, r.cfg.IndexFrac, r.cfg.Strategy, nil, nil)
		if err != nil {
			return nil, err
		}
		eng := core.NewEngine(g, core.Options{})

		t := stats.NewTable(
			fmt.Sprintf("Figure 6 (%s-like): query time and rank refinements vs k", ds),
			"k",
			"static time (s)", "dynamic time (s)", "indexed time (s)",
			"static refine", "dynamic refine", "indexed refine")
		for _, k := range r.sortedKs() {
			bs, err := runBatch(eng, core.Static, queries, k)
			if err != nil {
				return nil, err
			}
			bd, err := runBatch(eng, core.Dynamic, queries, k)
			if err != nil {
				return nil, err
			}
			// Fresh index clone per k so one sweep point doesn't warm the
			// next (the paper measures each setting independently).
			eng.SetIndex(ix.Snapshot().Sharded())
			bi, err := runBatch(eng, core.Indexed, queries, k)
			if err != nil {
				return nil, err
			}
			eng.SetIndex(nil)
			t.Add(k, bs.AvgTime, bd.AvgTime, bi.AvgTime, bs.AvgRefine, bd.AvgRefine, bi.AvgRefine)
		}
		t.Note("%d nodes, %d edges, %d queries per point", g.N(), g.M(), len(queries))
		out = append(out, t)
	}
	return out, nil
}

// NaiveGap reproduces the Section 6.3.1 naive-baseline comparison: the
// brute-force method refines every node of the graph, the framework
// refines a few hundred. The paper reports 701s / 75,878 refinements for
// naive on Epinions at k=1 versus seconds for the framework.
func (r *Runner) NaiveGap() (*stats.Table, error) {
	g := r.Epinions()
	n := r.cfg.NaiveQueries
	if n < 1 {
		n = 1
	}
	queries := workload.Random(g, n, r.cfg.Seed+17)
	eng := core.NewEngine(g, core.Options{})

	t := stats.NewTable("Section 6.3.1: naive baseline vs framework (Epinions-like, k=1)",
		"method", "avg query time (s)", "avg rank refinements")
	for _, algo := range []core.Algorithm{core.Naive, core.Static, core.Dynamic} {
		b, err := runBatch(eng, algo, queries, 1)
		if err != nil {
			return nil, err
		}
		t.Add(algo.String(), b.AvgTime, b.AvgRefine)
	}
	t.Note("%d queries; paper: naive=701.18s with 75,878 refinements on real Epinions", len(queries))
	return t, nil
}

// HubSweep reproduces Tables 6-7: the effect of the hub percentage h on
// index size, average query time, and rank refinements.
func (r *Runner) HubSweep(ds string) (*stats.Table, error) {
	g, err := r.graphByName(ds)
	if err != nil {
		return nil, err
	}
	queries := r.queriesFor(g)
	k := defaultK(r.cfg.Ks)
	t := stats.NewTable(
		fmt.Sprintf("Tables 6/7: effect of hub percentage h (%s-like, k=%d)", ds, k),
		"h", "index size (bytes)", "query time (s)", "rank refinement")
	for _, h := range r.cfg.HFracs {
		ix, _, err := r.buildIndex(g, h, r.cfg.IndexFrac, r.cfg.Strategy, nil, nil)
		if err != nil {
			return nil, err
		}
		eng := core.NewEngine(g, core.Options{})
		eng.SetIndex(ix)
		b, err := runBatch(eng, core.Indexed, queries, k)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%.2f", h), ix.SizeBytes(), b.AvgTime, b.AvgRefine)
	}
	t.Note("paper: query time and refinements fall monotonically as h grows; size barely moves")
	return t, nil
}

// IndexSweep reproduces Tables 8-9: the effect of the per-hub index
// percentage m.
func (r *Runner) IndexSweep(ds string) (*stats.Table, error) {
	g, err := r.graphByName(ds)
	if err != nil {
		return nil, err
	}
	queries := r.queriesFor(g)
	k := defaultK(r.cfg.Ks)
	t := stats.NewTable(
		fmt.Sprintf("Tables 8/9: effect of index percentage m (%s-like, k=%d)", ds, k),
		"m", "index size (bytes)", "query time (s)", "rank refinement")
	for _, m := range r.cfg.MFracs {
		ix, _, err := r.buildIndex(g, r.cfg.HubFrac, m, r.cfg.Strategy, nil, nil)
		if err != nil {
			return nil, err
		}
		eng := core.NewEngine(g, core.Options{})
		eng.SetIndex(ix)
		b, err := runBatch(eng, core.Indexed, queries, k)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%.2f", m), ix.SizeBytes(), b.AvgTime, b.AvgRefine)
	}
	t.Note("paper: gentle monotone improvement as m grows")
	return t, nil
}

// Table10 reproduces the hub-selection strategy comparison: Random vs
// Degree First vs Closeness First on both datasets.
func (r *Runner) Table10() (*stats.Table, error) {
	k := defaultK(r.cfg.Ks)
	t := stats.NewTable(fmt.Sprintf("Table 10: hub selection strategies (k=%d)", k),
		"dataset", "metric", "random", "degree first", "closeness first")
	for _, ds := range []string{"dblp", "epinions"} {
		g, err := r.graphByName(ds)
		if err != nil {
			return nil, err
		}
		queries := r.queriesFor(g)
		var times [3]string
		var refs [3]string
		for i, strat := range []hub.Strategy{hub.Random, hub.DegreeFirst, hub.ClosenessFirst} {
			ix, _, err := r.buildIndex(g, r.cfg.HubFrac, r.cfg.IndexFrac, strat, nil, nil)
			if err != nil {
				return nil, err
			}
			eng := core.NewEngine(g, core.Options{})
			eng.SetIndex(ix)
			b, err := runBatch(eng, core.Indexed, queries, k)
			if err != nil {
				return nil, err
			}
			times[i] = stats.Seconds(b.AvgTime)
			refs[i] = fmt.Sprintf("%.3f", b.AvgRefine)
		}
		t.Add(ds, "query time (s)", times[0], times[1], times[2])
		t.Add(ds, "rank refinement", refs[0], refs[1], refs[2])
	}
	t.Note("paper: Degree First wins, Closeness First close behind, Random worst")
	return t, nil
}

// defaultK returns the paper's default k (10 when present, else the middle
// of the axis).
func defaultK(ks []int) int {
	for _, k := range ks {
		if k == 10 {
			return k
		}
	}
	return ks[len(ks)/2]
}
