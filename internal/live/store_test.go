package live

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
	"weak"

	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/obs"
	"rkranks/internal/ridx"
	tg "rkranks/internal/testgraphs"
)

func mustStore(t *testing.T, g *graph.Graph, cfg Config) *Store {
	t.Helper()
	s, err := NewStore(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStoreValidation(t *testing.T) {
	g := tg.Path(10)
	// Shape mismatches.
	small := ridx.NewSharded(5, 8)
	if _, err := NewStore(g, Config{Index: small}); err == nil {
		t.Error("index with wrong N accepted")
	}
	if _, err := NewStore(nil, Config{}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestStorePatchVsRebuildCounters(t *testing.T) {
	ctx := context.Background()
	om := obs.NewMetrics(nil)
	s := mustStore(t, tg.Path(12), Config{PoolSize: 1, Metrics: om})

	if gen := s.Generation(); gen != 1 {
		t.Fatalf("boot generation %d, want 1", gen)
	}

	// Weight-only: patch path.
	info, err := s.Mutate(ctx, []graph.Mutation{graph.SetWeight(0, 1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rebuilt || info.Generation != 2 || info.Applied != 1 {
		t.Fatalf("patch info: %+v", info)
	}

	// Topology: rebuild path.
	info, err = s.Mutate(ctx, []graph.Mutation{graph.InsertEdge(0, 5, 1), graph.AddVertices(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Rebuilt || info.Generation != 3 || info.Nodes != 14 {
		t.Fatalf("rebuild info: %+v", info)
	}

	if s.Generation() != 3 || om.MutationBatches.Value() != 2 || om.MutationOps.Value() != 3 ||
		om.MutationPatches.Value() != 1 || om.MutationRebuilds.Value() != 1 {
		t.Fatalf("generation %d, batches %d, ops %d, patches %d, rebuilds %d", s.Generation(),
			om.MutationBatches.Value(), om.MutationOps.Value(), om.MutationPatches.Value(), om.MutationRebuilds.Value())
	}

	// New vertices are queryable after the rebuild.
	if _, err := s.QueryContext(ctx, core.Dynamic, 13, 3); err != nil {
		t.Fatalf("query on added vertex: %v", err)
	}
}

func TestStoreLabelLifecycle(t *testing.T) {
	ctx := context.Background()
	g := tg.Path(16)
	roots := hub.Order(g, hub.DegreeFirst, g.N(), hub.Options{})
	labels, err := hub.BuildLabels(g, roots, 0)
	if err != nil {
		t.Fatal(err)
	}
	om := obs.NewMetrics(nil)
	s := mustStore(t, g, Config{PoolSize: 1, Labels: labels, Metrics: om})

	if !s.HubLabeled() || s.LabelsStale() {
		t.Fatal("boot state must be labeled and fresh")
	}
	if s.HubLabelBytes() == 0 {
		t.Fatal("fresh labels report zero bytes")
	}

	if _, err := s.Mutate(ctx, []graph.Mutation{graph.SetWeight(0, 1, 2.5)}); err != nil {
		t.Fatal(err)
	}
	// HubLabel stays servable throughout (Dynamic fallback while stale).
	if !s.HubLabeled() {
		t.Fatal("HubLabeled flipped false under churn")
	}
	if _, err := s.QueryContext(ctx, core.HubLabel, 3, 4); err != nil {
		t.Fatalf("HubLabel query while stale: %v", err)
	}

	wait, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.AwaitLabels(wait); err != nil {
		t.Fatalf("await: %v", err)
	}
	if s.LabelsStale() {
		t.Fatal("labels still stale after AwaitLabels")
	}
	if om.MutationRelabels.Value() == 0 {
		t.Fatal("no relabel recorded")
	}
	// Relabeling must not have moved the generation (labels cannot change
	// answers).
	if s.Generation() != 2 {
		t.Fatalf("relabel moved generation to %d", s.Generation())
	}
}

func TestStoreRelabelDisabled(t *testing.T) {
	ctx := context.Background()
	g := tg.Path(10)
	roots := hub.Order(g, hub.DegreeFirst, g.N(), hub.Options{})
	labels, err := hub.BuildLabels(g, roots, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := mustStore(t, g, Config{PoolSize: 1, Labels: labels, Relabel: RelabelParams{Disable: true}})
	if _, err := s.Mutate(ctx, []graph.Mutation{graph.SetWeight(0, 1, 9)}); err != nil {
		t.Fatal(err)
	}
	// Labels stay stale forever, but HubLabel keeps answering via the
	// fallback.
	if !s.LabelsStale() {
		t.Fatal("labels not stale after mutation")
	}
	res, err := s.QueryContext(ctx, core.HubLabel, 2, 3)
	if err != nil {
		t.Fatalf("HubLabel with relabel disabled: %v", err)
	}
	if res.Generation != 2 {
		t.Fatalf("generation %d, want 2", res.Generation)
	}
}

func TestStoreBatchAtomicity(t *testing.T) {
	ctx := context.Background()
	s := mustStore(t, tg.Path(8), Config{PoolSize: 1})
	// Valid op followed by an invalid one: nothing applies.
	_, err := s.Mutate(ctx, []graph.Mutation{
		graph.SetWeight(0, 1, 5),
		graph.InsertEdge(0, 99, 1),
	})
	if !errors.Is(err, core.ErrInvalidArgument) {
		t.Fatalf("want ErrInvalidArgument, got %v", err)
	}
	if !errors.Is(err, graph.ErrBadMutation) {
		t.Fatalf("cause not preserved: %v", err)
	}
	if s.Generation() != 1 {
		t.Fatalf("failed batch advanced generation to %d", s.Generation())
	}
	res, err := s.QueryContext(ctx, core.Dynamic, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Weight 5 from the rejected batch must not be visible: on the path
	// graph 0-1-2..., node 1 still ranks 0 first at the original weight.
	if res.Generation != 1 {
		t.Fatalf("result stamped %d after rejected batch", res.Generation)
	}
}

func TestStoreIndexAcrossRebuild(t *testing.T) {
	ctx := context.Background()
	g := tg.Path(20)
	ix := ridx.NewSharded(g.N(), 10)
	s := mustStore(t, g, Config{PoolSize: 1, Index: ix})
	if !s.Indexed() {
		t.Fatal("store not indexed")
	}
	// Topology mutation swaps in a fresh empty index; Indexed queries must
	// keep working (and re-learn).
	if _, err := s.Mutate(ctx, []graph.Mutation{graph.InsertEdge(0, 10, 0.5)}); err != nil {
		t.Fatal(err)
	}
	if !s.Indexed() {
		t.Fatal("rebuild dropped the index")
	}
	want, err := s.QueryContext(ctx, core.Dynamic, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.QueryContext(ctx, core.Indexed, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Entries {
		if got.Entries[i] != want.Entries[i] {
			t.Fatalf("indexed diverged after rebuild: %v vs %v", got.Entries, want.Entries)
		}
	}
}

// TestTopologyBatchReleasesOldGraph: once a topology batch swaps in the
// rebuilt graph, nothing keeps the pre-batch state's graph alive, so a
// long-running live store's heap does not grow with every rebuild.
func TestTopologyBatchReleasesOldGraph(t *testing.T) {
	ctx := context.Background()
	s, old := func() (*Store, weak.Pointer[graph.Graph]) {
		g := tg.Path(50)
		return mustStore(t, g, Config{PoolSize: 1}), weak.Make(g)
	}()
	if _, err := s.QueryContext(ctx, core.Dynamic, 0, 3); err != nil {
		t.Fatal(err)
	}
	info, err := s.Mutate(ctx, []graph.Mutation{graph.InsertEdge(0, 9, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Rebuilt {
		t.Fatalf("insert_edge batch took the patch path: %+v", info)
	}
	if _, err := s.QueryContext(ctx, core.Dynamic, 0, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && old.Value() != nil; i++ {
		runtime.GC()
	}
	if old.Value() != nil {
		t.Fatal("the pre-batch graph is still reachable after the topology batch")
	}
	runtime.KeepAlive(s)
}
