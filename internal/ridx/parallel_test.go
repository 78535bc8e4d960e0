package ridx

import (
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/hub"
)

// TestBuildParallelEquivalence: the parallel builder, BuildSharded, must be
// bit-identical to the serial Build for any worker count.
func TestBuildParallelEquivalence(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 400, AttachPerNode: 4, Seed: 3})
	params := BuildParams{
		Hubs: hub.Select(g, hub.DegreeFirst, 40, hub.Options{}),
		M:    80,
		K:    8,
	}
	want, err := Build(g, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 100} {
		got, err := BuildSharded(g, params, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Entries() != want.Entries() || got.MaxK() != want.MaxK() {
			t.Fatalf("workers=%d: shape %d/%d vs %d/%d",
				workers, got.Entries(), got.MaxK(), want.Entries(), want.MaxK())
		}
		for v := int32(0); int(v) < g.N(); v++ {
			if got.Check(v) != want.Check(v) {
				t.Fatalf("workers=%d: check[%d] %d vs %d", workers, v, got.Check(v), want.Check(v))
			}
			a, b := got.Reverse(v, nil), want.Reverse(v, nil)
			if len(a) != len(b) {
				t.Fatalf("workers=%d: rrd[%d] size %d vs %d", workers, v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d: rrd[%d][%d] %v vs %v", workers, v, i, a[i], b[i])
				}
			}
		}
	}
}

func TestBuildParallelValidation(t *testing.T) {
	g := gen.GNM(10, 20, false, 1)
	if _, err := BuildSharded(g, BuildParams{Hubs: []int32{0}, M: 0, K: 1}, 2); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := BuildSharded(g, BuildParams{Hubs: []int32{0}, M: 1, K: 0}, 2); err == nil {
		t.Error("K=0 accepted")
	}
	// Zero hubs is legal: an empty but usable index.
	ix, err := BuildSharded(g, BuildParams{Hubs: nil, M: 1, K: 1}, 4)
	if err != nil || ix.Entries() != 0 {
		t.Errorf("empty hub set: %v, %v", ix, err)
	}
}

func TestBuildParallelDefaultWorkers(t *testing.T) {
	g := gen.GNM(50, 120, false, 2)
	params := BuildParams{Hubs: []int32{1, 2, 3, 4, 5}, M: 10, K: 3}
	ix, err := BuildSharded(g, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(g, params)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Entries() != want.Entries() {
		t.Errorf("entries %d vs %d", ix.Entries(), want.Entries())
	}
}

// BenchmarkBuildSharded times one index build at a fixed size: a
// 3000-node dblp-like graph, 300 degree hubs, M = 300 and K = 100 (the
// paper's 10% defaults), on GOMAXPROCS workers.
func BenchmarkBuildSharded(b *testing.B) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 3000, AttachPerNode: 7, ExtraCollabFactor: 0.5, Seed: 1})
	params := BuildParams{Hubs: hub.Select(g, hub.DegreeFirst, 300, hub.Options{Seed: 1}), M: 300, K: 100}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildSharded(g, params, 0); err != nil {
			b.Fatal(err)
		}
	}
}
