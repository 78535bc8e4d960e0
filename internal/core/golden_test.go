package core_test

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/ridx"
	"rkranks/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// decisionDataset is one graph of the engine-decision golden, with the
// index and labeling its Indexed and HubLabel runs attach.
type decisionDataset struct {
	name    string
	g       *graph.Graph
	opts    core.Options
	queries []int32
	index   *ridx.ShardedIndex
}

func decisionDatasets(t *testing.T) []decisionDataset {
	t.Helper()
	const maxK = 20
	road, stores := gen.RoadNetwork(gen.RoadNetworkParams{Rows: 20, Cols: 20, KeepProb: 0.3, Stores: 40, Seed: 5})
	candidates, counted := gen.StoreClasses(road.N(), stores)
	sets := []decisionDataset{
		{
			name: "dblp",
			g:    gen.DBLPLike(gen.DBLPLikeParams{Nodes: 400, AttachPerNode: 4, Seed: 3}),
		},
		{
			name: "epinions",
			g:    gen.EpinionsLike(gen.EpinionsLikeParams{Nodes: 400, OutPerNode: 3, BackEdgeProb: 0.3, Seed: 4}),
		},
		{
			name:    "road-bichromatic",
			g:       road,
			opts:    core.Options{Candidates: candidates, Counted: counted},
			queries: workload.RandomFrom(stores, 8, 6),
		},
	}
	for i := range sets {
		s := &sets[i]
		n := s.g.N()
		if s.queries == nil {
			s.queries = workload.Random(s.g, 8, int64(i+6))
		}
		ix, err := ridx.Build(s.g, ridx.BuildParams{
			Hubs:       hub.Select(s.g, hub.DegreeFirst, n/10, hub.Options{Seed: 9}),
			M:          n / 5,
			K:          maxK,
			Counted:    s.opts.Counted,
			Candidates: s.opts.Candidates,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.index = ix
		labels, err := hub.BuildLabels(s.g, hub.Order(s.g, hub.DegreeFirst, n/4, hub.Options{Seed: 9}), 2)
		if err != nil {
			t.Fatal(err)
		}
		s.opts.Labels = labels
	}
	return sets
}

// traceDigest hashes every field of every trace event, so a single changed
// decision, bound, distance bit or expansion flag changes the digest.
func traceDigest(tr []core.TraceEvent) string {
	h := fnv.New64a()
	var buf [18]byte
	for _, ev := range tr {
		binary.LittleEndian.PutUint32(buf[0:], uint32(ev.Node))
		binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(ev.Dist))
		buf[12] = byte(ev.Action)
		binary.LittleEndian.PutUint32(buf[13:], uint32(ev.Bound))
		buf[17] = 0
		if ev.Expanded {
			buf[17] = 1
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%d:%016x", len(tr), h.Sum64())
}

func decisionLine(b *strings.Builder, dataset string, a core.Algorithm, res *core.Result) {
	s := res.Stats
	fmt.Fprintf(b, "%s %s q=%d k=%d entries=", dataset, a, res.Query, res.K)
	for i, en := range res.Entries {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%d:%d", en.Node, en.Rank)
	}
	fmt.Fprintf(b, " refinements=%d refine_settled=%d refine_aborted=%d tree_settled=%d"+
		" pruned_by_bound=%d index_hits=%d seeded=%d wins=%d/%d/%d shared=%d"+
		" label_pruned=%d label_fallbacks=%d label_scanned=%d trace=%s\n",
		s.Refinements, s.RefineSettled, s.RefineAborted, s.TreeSettled,
		s.PrunedByBound, s.IndexHits, s.SeededFromIndex, s.HeightWins, s.CountWins, s.ParentWins,
		s.SharedTraversals, s.LabelPruned, s.LabelFallbacks, s.LabelScanned, traceDigest(res.Trace))
}

// maskedDecisions appends the masked cases of the golden: ds split two
// ways by node parity, each shard queried under a merged k of 20, so
// foreign candidates, the shadow heap and the trimmed result are pinned
// for every engine. The two shards of Indexed share one index, as the
// shards of an in-process cluster do.
func maskedDecisions(t *testing.T, b *strings.Builder, ds decisionDataset) {
	const shards, mergedK = 2, 20
	ctx := core.WithMergedK(context.Background(), mergedK)
	for _, a := range []core.Algorithm{core.Static, core.Dynamic, core.Indexed, core.HubLabel} {
		ix := ds.index.Snapshot().Sharded()
		for shard := 0; shard < shards; shard++ {
			mask := make([]bool, ds.g.N())
			for v := range mask {
				mask[v] = v%shards == shard
			}
			opts := ds.opts
			opts.Candidates = mask
			e := core.NewEngine(ds.g, opts)
			e.SetTracing(true)
			if a == core.Indexed {
				e.SetIndex(ix)
			}
			name := fmt.Sprintf("%s shard=%d/%d merged_k=%d", ds.name, shard, shards, mergedK)
			for _, q := range ds.queries {
				for _, k := range []int{1, 10, 20} {
					res, err := e.QueryContext(ctx, a, q, k)
					if err != nil {
						t.Fatalf("%s %v q=%d k=%d: %v", name, a, q, k, err)
					}
					decisionLine(b, name, a, res)
				}
			}
		}
		if a == core.Indexed {
			fmt.Fprintf(b, "%s masked %s index_entries=%d\n", ds.name, a, ix.Entries())
		}
	}
}

// TestEngineDecisionsGolden pins, for each SDS-tree engine on a DBLP-like
// undirected graph, an Epinions-like directed graph and a bichromatic road
// network, the exact result entries, every Stats decision and effort
// counter, and a digest of the decision trace. Indexed runs every query of
// a dataset against one evolving index, so its index feedback is pinned
// too (the final line records the index size). The masked cases at the
// end pin the merged-k shard decisions (maskedDecisions). Any diff means an engine
// decided differently; regenerate with
// `go test ./internal/core -run DecisionsGolden -update` only when that
// change is intended.
func TestEngineDecisionsGolden(t *testing.T) {
	var b strings.Builder
	for _, ds := range decisionDatasets(t) {
		for _, a := range []core.Algorithm{core.Static, core.Dynamic, core.Indexed, core.HubLabel} {
			e := core.NewEngine(ds.g, ds.opts)
			e.SetTracing(true)
			var ix *ridx.ShardedIndex
			if a == core.Indexed {
				ix = ds.index.Snapshot().Sharded()
				e.SetIndex(ix)
			}
			for _, q := range ds.queries {
				for _, k := range []int{1, 10, 20} {
					res, err := e.Query(a, q, k)
					if err != nil {
						t.Fatalf("%s %v q=%d k=%d: %v", ds.name, a, q, k, err)
					}
					decisionLine(&b, ds.name, a, res)
				}
			}
			if ix != nil {
				fmt.Fprintf(&b, "%s %s index_entries=%d\n", ds.name, a, ix.Entries())
			}
		}
	}
	maskedDecisions(t, &b, decisionDatasets(t)[0])
	got := b.String()

	const golden = "testdata/engine_decisions.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("engine decisions diverged from golden at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("engine decisions diverged from golden: %d lines, want %d", len(gl), len(wl))
	}
}
