package graph_test

import (
	"runtime"
	"testing"
	"weak"

	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/sssp"
)

// TestTraversedGraphIsCollected: a graph owns its CSR views, so once the
// last search or pool over it is dropped the graph is garbage. Nothing
// package-level may keep a traversed graph alive, or every graph a
// long-running server ever builds stays on its heap.
func TestTraversedGraphIsCollected(t *testing.T) {
	for name, traverse := range map[string]func(*graph.Graph) error{
		"sssp": func(g *graph.Graph) error {
			sssp.AllDistances(sssp.New(g), 0, make([]float64, g.N()))
			return nil
		},
		"pool": func(g *graph.Graph) error {
			_, err := core.NewPool(g, core.Options{}, 1).Query(core.Dynamic, 0, 3)
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			p, err := func() (weak.Pointer[graph.Graph], error) {
				g := gen.GNM(200, 600, true, 1)
				return weak.Make(g), traverse(g)
			}()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10 && p.Value() != nil; i++ {
				runtime.GC()
			}
			if p.Value() != nil {
				t.Fatal("a traversed graph stayed reachable after its last user dropped it")
			}
		})
	}
}
