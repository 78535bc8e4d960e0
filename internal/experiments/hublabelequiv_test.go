package experiments

import (
	"context"
	"fmt"
	"testing"

	"rkranks/internal/cache"
	"rkranks/internal/cluster"
	"rkranks/internal/core"
	"rkranks/internal/hub"
)

// TestHubLabelShardCacheBatchEquivalence is this PR's acceptance check:
// HubLabel answers — computed from the precomputed 2-hop labeling — are
// byte-identical to single-node Dynamic answers across every serving
// topology: 1/2/4/8 shards, per-query and batch scatter, with and
// without a response cache in front (cached entries are exercised by
// querying everything twice). The labeling is shared by all shards
// through core.Options, exactly as rkserve -topology wires it.
func TestHubLabelShardCacheBatchEquivalence(t *testing.T) {
	r, err := NewRunner(Small())
	if err != nil {
		t.Fatal(err)
	}
	g := r.DBLP()
	queries := r.queriesFor(g)
	k := defaultK(r.cfg.Ks)

	roots := hub.Order(g, hub.DegreeFirst, g.N(), hub.Options{Seed: r.cfg.Seed + 7})
	labels, err := hub.BuildLabels(g, roots, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: single-node Dynamic, no labeling involved at all.
	ref := core.NewEngine(g, core.Options{})
	want := make([]*core.Result, len(queries))
	for i, q := range queries {
		if want[i], err = ref.Query(core.Dynamic, q, k); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	check := func(cfg string, got []*core.Result) {
		t.Helper()
		for i := range queries {
			if len(got[i].Entries) != len(want[i].Entries) {
				t.Fatalf("%s q=%d: %d vs %d entries", cfg, queries[i], len(got[i].Entries), len(want[i].Entries))
			}
			for j := range want[i].Entries {
				if got[i].Entries[j] != want[i].Entries[j] {
					t.Fatalf("%s q=%d diverged at %d:\n got  %v\n want %v",
						cfg, queries[i], j, got[i].Entries, want[i].Entries)
				}
			}
		}
	}

	for _, shards := range []int{1, 2, 4, 8} {
		coord, err := cluster.NewLocal(g, core.Options{Labels: labels},
			cluster.DegreeBalanced{}, shards, 1, 2, nil, cluster.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cached := range []bool{false, true} {
			var backend interface {
				QueryContext(context.Context, core.Algorithm, int32, int) (*core.Result, error)
				QueryManyContext(context.Context, core.Algorithm, []int32, int) ([]*core.Result, error)
			} = coord
			if cached {
				cb, err := cache.NewBackend(coord, cache.Config{MaxBytes: 1 << 20})
				if err != nil {
					t.Fatal(err)
				}
				backend = cb
			}
			// Two rounds: with the cache on, round two answers from memory
			// and must still be byte-identical.
			for round := 0; round < 2; round++ {
				cfg := fmt.Sprintf("shards=%d cached=%v round=%d perquery", shards, cached, round)
				got := make([]*core.Result, len(queries))
				for i, q := range queries {
					if got[i], err = backend.QueryContext(ctx, core.HubLabel, q, k); err != nil {
						t.Fatalf("%s: %v", cfg, err)
					}
				}
				check(cfg, got)

				cfg = fmt.Sprintf("shards=%d cached=%v round=%d batch", shards, cached, round)
				batch, err := backend.QueryManyContext(ctx, core.HubLabel, queries, k)
				if err != nil {
					t.Fatalf("%s: %v", cfg, err)
				}
				check(cfg, batch)
			}
		}
		if !coord.HubLabeled() {
			t.Errorf("shards=%d: coordinator does not report HubLabeled", shards)
		}
		if got := coord.HubLabelBytes(); got != int64(shards)*labels.Bytes() {
			t.Errorf("shards=%d: HubLabelBytes = %d, want %d per shard", shards, got, labels.Bytes())
		}
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHubLabelBenchShape: the hublabel experiment's qualitative claims at
// Small scale — the labeling absorbs most of Dynamic's refinements on the
// skewed-degree dblp family, the prune counter moves, and the footprint
// column is populated.
func TestHubLabelBenchShape(t *testing.T) {
	r, err := NewRunner(Small())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := r.HubLabelBench()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range tab.Rows {
		rows[row[0]+"/"+row[1]] = row
	}
	for _, ds := range []string{"dblp", "road"} {
		dyn, hl := rows[ds+"/dynamic"], rows[ds+"/hublabel"]
		if dyn == nil || hl == nil {
			t.Fatalf("missing %s rows in %v", ds, tab.Rows)
		}
		if cellFloat(t, hl[6]) >= cellFloat(t, dyn[6]) {
			t.Errorf("%s: hublabel refined no less than dynamic (%s vs %s)", ds, hl[6], dyn[6])
		}
		if cellFloat(t, hl[7]) <= 0 {
			t.Errorf("%s: label scan pruned nothing", ds)
		}
		if cellFloat(t, hl[3]) <= 0 {
			t.Errorf("%s: label bytes column empty", ds)
		}
	}
}
