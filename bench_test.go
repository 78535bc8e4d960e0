// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6), plus micro-benchmarks for the core operations. Each
// BenchmarkTableN / BenchmarkFigureN runs the corresponding experiment of
// internal/experiments once per iteration at the Small scale; run
// cmd/rkbench for the full-scale paper-style tables.
package rkranks_test

import (
	"testing"

	"rkranks"
	"rkranks/internal/core"
	"rkranks/internal/experiments"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/sssp"
)

func benchExperiment(b *testing.B, name string) {
	cfg := experiments.Small()
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Datasets are cached inside the runner; build them before timing.
	if _, err := r.Run(name); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(name); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact (the experiment names rkbench -list
// prints).

func BenchmarkTable3ReverseTopKSizes(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkTable4AgreementRate(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkFigure5CaseStudy(b *testing.B)         { benchExperiment(b, "figure5") }
func BenchmarkFigure6EnginesVsK(b *testing.B)        { benchExperiment(b, "figure6") }
func BenchmarkNaiveBaselineGap(b *testing.B)         { benchExperiment(b, "naive") }
func BenchmarkTable6HubSweepDBLP(b *testing.B)       { benchExperiment(b, "table6") }
func BenchmarkTable7HubSweepEpinions(b *testing.B)   { benchExperiment(b, "table7") }
func BenchmarkTable8IndexSweepDBLP(b *testing.B)     { benchExperiment(b, "table8") }
func BenchmarkTable9IndexSweepEpinions(b *testing.B) { benchExperiment(b, "table9") }
func BenchmarkTable10HubStrategies(b *testing.B)     { benchExperiment(b, "table10") }
func BenchmarkTable11BoundWins(b *testing.B)         { benchExperiment(b, "table11") }
func BenchmarkTable12BoundsMaxDegree(b *testing.B)   { benchExperiment(b, "table12") }
func BenchmarkTable13BoundsMinDegree(b *testing.B)   { benchExperiment(b, "table13") }
func BenchmarkTable14IndexUpdates(b *testing.B)      { benchExperiment(b, "table14") }
func BenchmarkTable15IndexConstruction(b *testing.B) { benchExperiment(b, "table15") }
func BenchmarkFigure7Bichromatic(b *testing.B)       { benchExperiment(b, "figure7") }

// Micro-benchmarks.

func benchGraph() *graph.Graph {
	return gen.DBLPLike(gen.DBLPLikeParams{Nodes: 3000, AttachPerNode: 6, ExtraCollabFactor: 0.5, Seed: 11})
}

func BenchmarkQueryNaive(b *testing.B)   { benchQuery(b, core.Naive) }
func BenchmarkQueryStatic(b *testing.B)  { benchQuery(b, core.Static) }
func BenchmarkQueryDynamic(b *testing.B) { benchQuery(b, core.Dynamic) }

func benchQuery(b *testing.B, algo core.Algorithm) {
	g := benchGraph()
	e := core.NewEngine(g, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(algo, int32(i%g.N()), 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryIndexed(b *testing.B) {
	g := benchGraph()
	ix, err := rkranks.BuildIndex(g, rkranks.IndexParams{
		HubFraction: 0.1, RankFraction: 0.1, MaxK: 20, Strategy: rkranks.DegreeHubs,
	})
	if err != nil {
		b.Fatal(err)
	}
	e := core.NewEngine(g, core.Options{})
	e.SetIndex(ix)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(core.Indexed, int32(i%g.N()), 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rkranks.BuildIndex(g, rkranks.IndexParams{
			HubFraction: 0.05, RankFraction: 0.05, MaxK: 20, Strategy: rkranks.DegreeHubs,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSSPFull(b *testing.B) {
	g := benchGraph()
	s := sssp.New(g)
	dist := make([]float64, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sssp.AllDistances(s, int32(i%g.N()), dist)
	}
}

func BenchmarkRankRefinement(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rkranks.Rank(g, int32(i%g.N()), int32((i+1)%g.N()))
	}
}

func BenchmarkGraphBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gen.DBLPLike(gen.DBLPLikeParams{Nodes: 2000, AttachPerNode: 5, Seed: int64(i)})
	}
}

// Ablation: the refinement frontier cutoff (Algorithm 2's distance bound).
// Compare with BenchmarkQueryDynamic to see how much queue pressure the
// bound removes.
func BenchmarkQueryDynamicNoCutoff(b *testing.B) {
	g := benchGraph()
	e := core.NewEngine(g, core.Options{DisableDistanceCutoff: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(core.Dynamic, int32(i%g.N()), 10); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: bound strategies (the paper's Dynamic-Parent vs Dynamic-Three).
func BenchmarkQueryDynamicParentOnly(b *testing.B) {
	g := benchGraph()
	e := core.NewEngine(g, core.Options{Bounds: core.BoundParent})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(core.Dynamic, int32(i%g.N()), 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReverseTopK(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rkranks.ReverseTopK(g, int32(i%g.N()), 10)
	}
}
