package rkranks_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"rkranks"
	"rkranks/internal/gen"
)

// toyGraph rebuilds the paper's Figure-1 example through the public API.
func toyGraph() (*rkranks.Graph, map[string]int32) {
	b := rkranks.NewBuilder(false)
	id := map[string]int32{}
	for _, n := range []string{"Alice", "Bob", "Caroline", "Sid", "Eric", "Frank", "George"} {
		id[n] = b.AddLabeledNode(n)
	}
	edges := []struct {
		u, v string
		w    float64
	}{
		{"Alice", "Bob", 1.0}, {"Bob", "Eric", 0.2}, {"Bob", "Caroline", 0.3},
		{"Caroline", "Sid", 1.2}, {"Eric", "Frank", 0.9}, {"Eric", "Sid", 1.0},
		{"Eric", "George", 1.1}, {"Frank", "George", 0.2},
	}
	for _, e := range edges {
		b.MustAddEdge(id[e.u], id[e.v], e.w)
	}
	return b.Finalize(), id
}

func TestPublicQuickstart(t *testing.T) {
	g, id := toyGraph()
	res, err := rkranks.ReverseKRanks(g, id["Alice"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || g.Label(res[0].Node) != "Bob" || g.Label(res[1].Node) != "Caroline" {
		t.Fatalf("reverse 2-ranks of Alice = %v", res)
	}
	if res[0].Rank != 3 || res[1].Rank != 4 {
		t.Fatalf("ranks = %v", res)
	}
}

func TestPublicAllAlgorithms(t *testing.T) {
	g, id := toyGraph()
	e := rkranks.NewEngine(g, rkranks.Options{})
	ix, err := rkranks.BuildIndex(g, rkranks.IndexParams{
		HubFraction: 0.5, RankFraction: 0.5, MaxK: 4, Strategy: rkranks.DegreeHubs,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetIndex(ix)
	for _, algo := range []rkranks.Algorithm{rkranks.Naive, rkranks.Static, rkranks.Dynamic, rkranks.Indexed} {
		res, err := e.Query(algo, id["Eric"], 2)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res.Entries) != 2 || res.Entries[0].Rank != 1 || res.Entries[1].Rank != 1 {
			t.Errorf("%v: %v", algo, res.Entries)
		}
	}
}

func TestPublicRankDistanceTopK(t *testing.T) {
	g, id := toyGraph()
	if r := rkranks.Rank(g, id["Bob"], id["Alice"]); r != 3 {
		t.Errorf("Rank(Bob,Alice) = %d, want 3", r)
	}
	if d, ok := rkranks.Distance(g, id["Alice"], id["Eric"]); !ok || d != 1.2 {
		t.Errorf("Distance = %g/%v", d, ok)
	}
	top := rkranks.TopK(g, id["Alice"], 2)
	if len(top) != 2 || g.Label(top[0].Node) != "Bob" || top[0].Rank != 1 {
		t.Errorf("TopK = %v", top)
	}
	rtk := rkranks.ReverseTopK(g, id["Eric"], 2)
	if len(rtk) != 6 {
		t.Errorf("ReverseTopK size = %d, want 6", len(rtk))
	}
}

func TestPublicGraphIO(t *testing.T) {
	g, id := toyGraph()
	path := filepath.Join(t.TempDir(), "toy.rkg")
	if err := rkranks.WriteGraph(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := rkranks.ReadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("round trip shape: %d/%d", got.N(), got.M())
	}
	if back, ok := got.NodeByLabel("Eric"); !ok || back != id["Eric"] {
		t.Error("labels lost")
	}
	res, err := rkranks.ReverseKRanks(got, id["Alice"], 2)
	if err != nil || len(res) != 2 {
		t.Fatalf("query on reloaded graph: %v, %v", res, err)
	}
}

func TestBuildIndexValidation(t *testing.T) {
	g, _ := toyGraph()
	bad := []rkranks.IndexParams{
		{HubFraction: -0.1, RankFraction: 0.1, MaxK: 5},
		{HubFraction: 1.5, RankFraction: 0.1, MaxK: 5},
		{HubFraction: 0.1, RankFraction: -0.1, MaxK: 5},
		{HubFraction: 0.1, RankFraction: 0.1, MaxK: -1},
	}
	for i, p := range bad {
		_, err := rkranks.BuildIndex(g, p)
		if err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		} else if !errors.Is(err, rkranks.ErrInvalidOptions) {
			t.Errorf("params %d: error does not wrap ErrInvalidOptions: %v", i, err)
		}
	}
	// Zero fields mean "use the paper's defaults", not an error.
	if _, err := rkranks.BuildIndex(g, rkranks.IndexParams{}); err != nil {
		t.Errorf("zero IndexParams rejected: %v", err)
	}
}

func TestPublicBichromatic(t *testing.T) {
	// 5-node path; nodes 0 and 4 are "stores", the rest communities.
	b := rkranks.NewBuilder(false)
	for i := 0; i < 5; i++ {
		b.AddNode()
	}
	for i := 0; i < 4; i++ {
		b.MustAddEdge(int32(i), int32(i+1), 1)
	}
	g := b.Finalize()
	candidates := []bool{false, true, true, true, false}
	counted := []bool{true, false, false, false, true}
	e := rkranks.NewEngine(g, rkranks.Options{Candidates: candidates, Counted: counted})
	res, err := e.Query(rkranks.Dynamic, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Communities 1 and 2 rank store 0 first (closer than store 4).
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %v", res.Entries)
	}
	for _, en := range res.Entries[:2] {
		if en.Node != 1 && en.Node != 2 {
			t.Errorf("unexpected community %d", en.Node)
		}
		if en.Rank != 1 {
			t.Errorf("rank = %d, want 1", en.Rank)
		}
	}
	// Querying a non-counted node must fail.
	if _, err := e.Query(rkranks.Dynamic, 2, 1); err == nil {
		t.Error("bichromatic query from candidate class accepted")
	}
}

func TestPublicPool(t *testing.T) {
	g, id := toyGraph()
	pool := rkranks.NewPool(g, rkranks.Options{}, 2)
	results, err := pool.QueryMany(rkranks.Dynamic, []int32{id["Alice"], id["Eric"]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(results[0].Entries) != 2 || results[1].Entries[0].Rank != 1 {
		t.Fatalf("pool results: %v", results)
	}
}

func TestPublicConcurrentIndexPool(t *testing.T) {
	g, id := toyGraph()
	params := rkranks.IndexParams{
		HubFraction: 0.5, RankFraction: 0.5, MaxK: 4, Strategy: rkranks.DegreeHubs,
	}
	cix, err := rkranks.BuildIndex(g, params)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rkranks.NewPoolWithIndex(g, rkranks.Options{}, 4, cix)
	if err != nil {
		t.Fatal(err)
	}

	// Serial oracle: a dedicated engine on its own index copy.
	six, err := rkranks.BuildIndex(g, params)
	if err != nil {
		t.Fatal(err)
	}
	oracle := rkranks.NewEngine(g, rkranks.Options{})
	oracle.SetIndex(six)
	queries := make([]int32, 0, len(id))
	for _, q := range id {
		queries = append(queries, q)
	}
	want := map[int32]string{}
	for _, q := range queries {
		res, err := oracle.Query(rkranks.Indexed, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = fmt.Sprint(res.Entries)
	}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q int32) {
				defer wg.Done()
				res, err := pool.Query(rkranks.Indexed, q, 3)
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(res.Entries); got != want[q] {
					t.Errorf("q=%d: %s != %s", q, got, want[q])
				}
			}(q)
		}
	}
	wg.Wait()
	results, err := pool.QueryMany(rkranks.Indexed, queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if got := fmt.Sprint(res.Entries); got != want[queries[i]] {
			t.Errorf("QueryMany q=%d: %s != %s", queries[i], got, want[queries[i]])
		}
	}
}

func TestConcurrentIndexSaveLoad(t *testing.T) {
	g, id := toyGraph()
	cix, err := rkranks.BuildIndex(g, rkranks.IndexParams{
		HubFraction: 0.5, RankFraction: 0.5, MaxK: 4, Strategy: rkranks.DegreeHubs,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "toy.rki")
	if err := rkranks.SaveIndex(path, cix); err != nil {
		t.Fatal(err)
	}
	back, err := rkranks.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Entries() != cix.Entries() {
		t.Fatalf("reloaded index: entries=%d want %d", back.Entries(), cix.Entries())
	}
	pool, err := rkranks.NewPoolWithIndex(g, rkranks.Options{}, 2, back)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.Query(rkranks.Indexed, id["Alice"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 || res.Entries[0].Rank != 3 {
		t.Fatalf("query via reloaded index: %v", res.Entries)
	}
}

func TestIndexSaveLoad(t *testing.T) {
	g, id := toyGraph()
	ix, err := rkranks.BuildIndex(g, rkranks.IndexParams{
		HubFraction: 0.5, RankFraction: 0.5, MaxK: 4, Strategy: rkranks.DegreeHubs,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "toy.rki")
	if err := rkranks.SaveIndex(path, ix); err != nil {
		t.Fatal(err)
	}
	back, err := rkranks.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	e := rkranks.NewEngine(g, rkranks.Options{})
	e.SetIndex(back)
	res, err := e.Query(rkranks.Indexed, id["Alice"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 || res.Entries[0].Rank != 3 {
		t.Fatalf("query via reloaded index: %v", res.Entries)
	}
	if _, err := rkranks.LoadIndex(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing index accepted")
	}
}

func TestDistanceCutoffAblationSameResults(t *testing.T) {
	g, id := toyGraph()
	plain := rkranks.NewEngine(g, rkranks.Options{})
	ablate := rkranks.NewEngine(g, rkranks.Options{DisableDistanceCutoff: true})
	for _, q := range id {
		a, err := plain.Query(rkranks.Dynamic, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ablate.Query(rkranks.Dynamic, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Entries) != len(b.Entries) {
			t.Fatalf("cutoff changed result size for q=%d", q)
		}
		for i := range a.Entries {
			if a.Entries[i] != b.Entries[i] {
				t.Fatalf("cutoff changed results for q=%d: %v vs %v", q, a.Entries, b.Entries)
			}
		}
	}
}

func TestPublicReverseTopKBichromatic(t *testing.T) {
	// Path 0-1-2-3-4 with stores at the ends.
	b := rkranks.NewBuilder(false)
	for i := 0; i < 5; i++ {
		b.AddNode()
	}
	for i := 0; i < 4; i++ {
		b.MustAddEdge(int32(i), int32(i+1), 1)
	}
	g := b.Finalize()
	candidates := []bool{false, true, true, true, false}
	counted := []bool{true, false, false, false, true}
	res := rkranks.ReverseTopKBichromatic(g, 0, 1, candidates, counted)
	// Communities 1 and 2 are nearer to store 0 than to store 4 (node 2
	// ties at distance 2 from both, so both stores rank 1 from it).
	if len(res) != 2 {
		t.Fatalf("reverse top-1 of store 0 = %v", res)
	}
	for _, e := range res {
		if e.Node != 1 && e.Node != 2 {
			t.Errorf("unexpected community %d", e.Node)
		}
	}
}

func TestRankUnreachableConstant(t *testing.T) {
	b := rkranks.NewBuilder(true)
	b.AddNode()
	b.AddNode()
	b.MustAddEdge(0, 1, 1)
	g := b.Finalize()
	if r := rkranks.Rank(g, 1, 0); r != rkranks.RankUnreachable {
		t.Errorf("Rank = %d, want RankUnreachable", r)
	}
}

// TestPublicCluster covers NewCluster: a 4-shard in-process cluster must
// answer byte-identically to a single engine, flag nothing partial, and
// serve Indexed queries when given a shared concurrent index.
func TestPublicCluster(t *testing.T) {
	g, id := toyGraph()
	cl, err := rkranks.NewCluster(g, rkranks.Options{}, rkranks.ClusterOptions{
		Shards: 4, Partitioner: "degree",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Query(rkranks.Dynamic, id["Alice"], 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rkranks.ReverseKRanks(g, id["Alice"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != len(want) || res.Partial {
		t.Fatalf("cluster result %+v, want %v", res, want)
	}
	for i := range want {
		if res.Entries[i] != want[i] {
			t.Fatalf("cluster diverged: %v vs %v", res.Entries, want)
		}
	}

	ix, err := rkranks.BuildIndex(g, rkranks.IndexParams{
		HubFraction: 0.5, RankFraction: 0.5, MaxK: 10, Strategy: rkranks.DegreeHubs,
	})
	if err != nil {
		t.Fatal(err)
	}
	icl, err := rkranks.NewCluster(g, rkranks.Options{}, rkranks.ClusterOptions{Shards: 2, Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	defer icl.Close()
	ires, err := icl.Query(rkranks.Indexed, id["Alice"], 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if ires.Entries[i] != want[i] {
			t.Fatalf("indexed cluster diverged: %v vs %v", ires.Entries, want)
		}
	}

	if _, err := rkranks.NewCluster(g, rkranks.Options{}, rkranks.ClusterOptions{Shards: -1}); !errors.Is(err, rkranks.ErrInvalidOptions) {
		t.Errorf("Shards: -1: %v", err)
	}
	if _, err := rkranks.NewCluster(g, rkranks.Options{}, rkranks.ClusterOptions{Shards: 2, Partitioner: "nope"}); !errors.Is(err, rkranks.ErrInvalidOptions) {
		t.Errorf("unknown partitioner: %v", err)
	}
	// Shards: 0 defaults to a single shard.
	single, err := rkranks.NewCluster(g, rkranks.Options{}, rkranks.ClusterOptions{})
	if err != nil {
		t.Fatalf("zero ClusterOptions rejected: %v", err)
	}
	single.Close()
}

// TestPublicCachedBackend: the cache decorator wraps both a Pool and a
// Cluster through the public API, answers byte-identically on repeats,
// and reports its counters.
func TestPublicCachedBackend(t *testing.T) {
	g, id := toyGraph()
	pool := rkranks.NewPool(g, rkranks.Options{}, 2)
	cached, err := rkranks.NewCachedBackend(pool, rkranks.CacheOptions{MaxMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := id["Alice"]
	first, err := cached.QueryContext(context.Background(), rkranks.Dynamic, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cached.QueryContext(context.Background(), rkranks.Dynamic, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Entries {
		if first.Entries[i] != second.Entries[i] {
			t.Fatalf("cached repeat diverged: %v vs %v", first.Entries, second.Entries)
		}
	}
	snap := cached.Cache().Stats()
	if snap.Hits != 1 || snap.Misses != 1 {
		t.Errorf("cache stats = %+v, want one miss then one hit", snap)
	}

	cl, err := rkranks.NewCluster(g, rkranks.Options{}, rkranks.ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cachedCluster, err := rkranks.NewCachedBackend(cl, rkranks.CacheOptions{MaxMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cachedCluster.QueryContext(context.Background(), rkranks.Dynamic, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Entries {
		if res.Entries[i] != first.Entries[i] {
			t.Fatalf("cached cluster diverged from pool: %v vs %v", res.Entries, first.Entries)
		}
	}

	if _, err := rkranks.NewCachedBackend(pool, rkranks.CacheOptions{MaxMB: -1}); !errors.Is(err, rkranks.ErrInvalidOptions) {
		t.Errorf("MaxMB: -1: %v", err)
	}
	// MaxMB: 0 means the 64 MiB default.
	if _, err := rkranks.NewCachedBackend(pool, rkranks.CacheOptions{}); err != nil {
		t.Errorf("zero CacheOptions rejected: %v", err)
	}
}

// TestPublicReplicatedCluster: ClusterOptions.Replicas runs each shard
// as a replica set with byte-identical answers, a negative count fails
// with ErrInvalidOptions, and a ReplicatedIndex drops in wherever an
// Index is accepted.
func TestPublicReplicatedCluster(t *testing.T) {
	g, id := toyGraph()
	cl, err := rkranks.NewCluster(g, rkranks.Options{}, rkranks.ClusterOptions{Shards: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	want, err := rkranks.ReverseKRanks(g, id["Alice"], 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(rkranks.Dynamic, id["Alice"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || len(res.Entries) != len(want) {
		t.Fatalf("replicated cluster degraded: %+v", res)
	}
	for i := range want {
		if res.Entries[i] != want[i] {
			t.Fatalf("replicated cluster diverged: %v vs %v", res.Entries, want)
		}
	}

	if _, err := rkranks.NewCluster(g, rkranks.Options{}, rkranks.ClusterOptions{Replicas: -1}); !errors.Is(err, rkranks.ErrInvalidOptions) {
		t.Errorf("Replicas: -1: %v", err)
	}

	ix, err := rkranks.BuildIndex(g, rkranks.IndexParams{
		HubFraction: 0.5, RankFraction: 0.5, MaxK: 10, Strategy: rkranks.DegreeHubs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ricl, err := rkranks.NewCluster(g, rkranks.Options{}, rkranks.ClusterOptions{
		Shards: 2, Replicas: 2, Index: rkranks.NewReplicatedIndex(ix),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ricl.Close()
	ires, err := ricl.Query(rkranks.Indexed, id["Alice"], 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if ires.Entries[i] != want[i] {
			t.Fatalf("replicated indexed cluster diverged: %v vs %v", ires.Entries, want)
		}
	}
}

// TestLabelsAttachThroughOptions: Options.Labels is the one place a hub
// labeling attaches, and every backend constructor honours it: each
// reports HubLabeled and answers HubLabel with Dynamic's entries.
func TestLabelsAttachThroughOptions(t *testing.T) {
	g, err := gen.Named("dblp", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := rkranks.BuildHubLabels(g, rkranks.HubLabelParams{Count: 40, Strategy: rkranks.DegreeHubs})
	if err != nil {
		t.Fatal(err)
	}
	opts := rkranks.Options{Labels: labels}
	type backend interface {
		QueryContext(ctx context.Context, a rkranks.Algorithm, q int32, k int) (*rkranks.Result, error)
		HubLabeled() bool
	}
	cases := []struct {
		name  string
		build func() (backend, error)
	}{
		{"NewPool", func() (backend, error) { return rkranks.NewPool(g, opts, 1), nil }},
		{"NewLiveBackend", func() (backend, error) {
			return rkranks.NewLiveBackend(g, rkranks.LiveOptions{Options: opts, PoolSize: 1})
		}},
		{"NewCluster", func() (backend, error) {
			return rkranks.NewCluster(g, opts, rkranks.ClusterOptions{Shards: 2, PoolSize: 1})
		}},
		{"NewCluster live", func() (backend, error) {
			return rkranks.NewCluster(g, opts, rkranks.ClusterOptions{Shards: 2, PoolSize: 1, Live: true})
		}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		b, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !b.HubLabeled() {
			t.Errorf("%s: HubLabeled() = false", tc.name)
		}
		for _, q := range []int32{0, 17, 399} {
			want, err := b.QueryContext(ctx, rkranks.Dynamic, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.QueryContext(ctx, rkranks.HubLabel, q, 10)
			if err != nil {
				t.Errorf("%s: HubLabel q=%d: %v", tc.name, q, err)
				continue
			}
			if fmt.Sprint(got.Entries) != fmt.Sprint(want.Entries) {
				t.Errorf("%s: HubLabel q=%d = %v, Dynamic %v", tc.name, q, got.Entries, want.Entries)
			}
		}
	}
}
