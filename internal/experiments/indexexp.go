package experiments

import (
	"fmt"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/stats"
	"rkranks/internal/workload"
)

// Table14 reproduces the index-update study: a fixed query stream is
// answered by the indexed engine, with the index reset every batch of
// total/n queries for n = 6, 3, 2, 1. The fewer resets, the more the index
// has evolved by the time later queries arrive, so average time and
// refinement counts fall. Batch sizes scale with the configured workload
// (the paper used 6,000 queries).
func (r *Runner) Table14() (*stats.Table, error) {
	t := stats.NewTable("Table 14: results with index update",
		"dataset", "queries per reset", "query time (s)", "rank refinement")
	k := defaultK(r.cfg.Ks)
	for _, ds := range []string{"dblp", "epinions"} {
		g, err := r.graphByName(ds)
		if err != nil {
			return nil, err
		}
		total := 6 * r.cfg.Queries
		queries := workload.Random(g, total, r.cfg.Seed+19)
		base, _, err := r.buildIndex(g, r.cfg.HubFrac, r.cfg.IndexFrac, r.cfg.Strategy, nil, nil)
		if err != nil {
			return nil, err
		}
		for _, splits := range []int{6, 3, 2, 1} {
			per := total / splits
			eng := core.NewEngine(g, core.Options{})
			var sumTime time.Duration
			var sumRefine int64
			for s := 0; s < splits; s++ {
				eng.SetIndex(base.Snapshot().Sharded()) // index reset for this split
				b, err := runBatch(eng, core.Indexed, queries[s*per:(s+1)*per], k)
				if err != nil {
					return nil, err
				}
				sumTime += b.AvgTime * time.Duration(b.Queries)
				sumRefine += int64(b.Stats.Refinements)
			}
			t.Add(ds, per,
				sumTime/time.Duration(total),
				fmt.Sprintf("%.3f", float64(sumRefine)/float64(total)))
		}
	}
	t.Note("paper: both metrics fall monotonically as the per-reset batch grows")
	return t, nil
}

// Table15 reproduces the index-construction cost grid: build time for each
// (h, m) combination of Tables 6-9, on both datasets. The paper reports
// hours on the real graphs; shapes (superlinear growth in both h and m)
// carry over.
func (r *Runner) Table15() (*stats.Table, error) {
	t := stats.NewTable("Table 15: index construction time",
		"h", "m", "dblp build (s)", "epinions build (s)")
	type hm struct{ h, m float64 }
	var grid []hm
	for _, h := range r.cfg.HFracs {
		grid = append(grid, hm{h, r.cfg.IndexFrac})
	}
	for _, m := range r.cfg.MFracs {
		if m != r.cfg.IndexFrac {
			grid = append(grid, hm{r.cfg.HubFrac, m})
		}
	}
	dblp := r.DBLP()
	epi := r.Epinions()
	for _, p := range grid {
		_, dDur, err := r.buildIndex(dblp, p.h, p.m, r.cfg.Strategy, nil, nil)
		if err != nil {
			return nil, err
		}
		_, eDur, err := r.buildIndex(epi, p.h, p.m, r.cfg.Strategy, nil, nil)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%.2f", p.h), fmt.Sprintf("%.2f", p.m), dDur, eDur)
	}
	t.Note("paper reports hours on the real 1.3M-node DBLP; construction scales ~linearly in h and in m")
	return t, nil
}
