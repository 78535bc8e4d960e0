package main

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"rkranks/internal/api"
	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/rank"
)

// mirror replays the applied mutation batches, in the order of the
// generations the server assigned them, onto an edge store captured
// before any mutation. It returns the graph the server should now serve
// and the generation it should stamp (a live store starts at 1).
func mirror(base *graph.EdgeStore, applied []appliedBatch) (*graph.Graph, uint64, error) {
	applied = slices.Clone(applied)
	slices.SortFunc(applied, func(a, b appliedBatch) int { return cmp.Compare(a.gen, b.gen) })
	for i, b := range applied {
		if want := uint64(i) + 2; b.gen != want {
			return nil, 0, fmt.Errorf("mutation batch %d was assigned generation %d, want %d", i, b.gen, want)
		}
		for _, m := range b.ms {
			if err := base.Apply(m); err != nil {
				return nil, 0, fmt.Errorf("mirror of batch %d: %w", i, err)
			}
		}
	}
	return base.Build(), uint64(len(applied)) + 1, nil
}

// replay re-sends reqs through the front server and diffs each answer
// against a fresh single-node pool running Dynamic over ref. wantGen, when
// nonzero, is the generation every answer must carry. It returns the
// answers in request order, and how many requests failed and how many of
// those were wrong.
func replay(ctx context.Context, c *api.Client, reqs []request, ref *graph.Graph, wantGen uint64) (answers [][]api.Entry, failed, wrong int, err error) {
	k := reqs[0].k
	qs := make([]int32, len(reqs))
	for i, r := range reqs {
		if r.k != k {
			return nil, 0, 0, fmt.Errorf("replay requests mix k=%d and k=%d", k, r.k)
		}
		qs[i] = r.q
	}
	want, err := core.NewPool(ref, core.Options{}, poolEngines).QueryMany(core.Dynamic, qs, k)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("reference engine: %w", err)
	}
	answers = make([][]api.Entry, len(reqs))
	for i, r := range reqs {
		resp, err := c.Query(ctx, r.algo, r.q, r.k, requestTimeout)
		if err != nil {
			failed++
			continue
		}
		answers[i] = resp.Entries
		if resp.Partial || (wantGen != 0 && resp.Generation != wantGen) || !sameEntries(resp.Entries, want[i].Entries) {
			failed++
			wrong++
		}
	}
	return answers, failed, wrong, nil
}

func sameEntries(got []api.Entry, want []rank.Entry) bool {
	if len(got) != len(want) {
		return false
	}
	for i, e := range want {
		if got[i].Node != e.Node || got[i].Rank != e.Rank {
			return false
		}
	}
	return true
}
