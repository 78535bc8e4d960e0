package experiments

import (
	"testing"

	"rkranks/internal/cluster"
	"rkranks/internal/core"
)

// TestFigure6QuerySetClusterEquivalence is the PR's acceptance check: a
// 4-shard in-process cluster answers the FULL figure6 query set — both
// datasets, every configured k, Static/Dynamic/Indexed — with results
// byte-identical to a single-node Pool.Query.
func TestFigure6QuerySetClusterEquivalence(t *testing.T) {
	r, err := NewRunner(Small())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"dblp", "epinions"} {
		g, err := r.graphByName(ds)
		if err != nil {
			t.Fatal(err)
		}
		queries := r.queriesFor(g)

		seed, _, err := r.buildIndex(g, r.cfg.HubFrac, r.cfg.IndexFrac, r.cfg.Strategy, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		single, err := core.NewPoolWithIndex(g, core.Options{}, 2, seed.Snapshot().Sharded())
		if err != nil {
			t.Fatal(err)
		}
		coord, err := cluster.NewLocal(g, core.Options{}, cluster.DegreeBalanced{}, 4, 1, 1,
			seed.Snapshot().Sharded(), cluster.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []core.Algorithm{core.Static, core.Dynamic, core.Indexed} {
			for _, k := range r.sortedKs() {
				for _, q := range queries {
					want, err := single.Query(algo, q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := coord.Query(algo, q, k)
					if err != nil {
						t.Fatalf("%s %v q=%d k=%d: %v", ds, algo, q, k, err)
					}
					if len(got.Entries) != len(want.Entries) {
						t.Fatalf("%s %v q=%d k=%d: %d vs %d entries", ds, algo, q, k, len(got.Entries), len(want.Entries))
					}
					for i := range want.Entries {
						if got.Entries[i] != want.Entries[i] {
							t.Fatalf("%s %v q=%d k=%d diverged at %d:\n cluster %v\n single  %v",
								ds, algo, q, k, i, got.Entries, want.Entries)
						}
					}
				}
			}
		}
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
