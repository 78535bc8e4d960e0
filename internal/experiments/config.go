// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on the synthetic stand-in datasets of
// internal/gen. Each experiment returns a stats.Table whose rows mirror the
// paper's.
package experiments

import (
	"fmt"

	"rkranks/internal/hub"
)

// Config sizes the datasets and workloads. The paper ran on graphs of up to
// 1.3M nodes with 1000 queries per setting; the defaults here are scaled so
// the full suite finishes in minutes while preserving every comparison's
// shape. All randomness derives from Seed.
type Config struct {
	// DBLP-like collaboration graph (undirected, power-law, avg deg ~14).
	DBLPNodes  int
	DBLPAttach int

	// Epinions-like trust graph (directed, power-law, Zipf weights).
	EpinionsNodes int
	EpinionsOut   int

	// SF-like road network (undirected near-planar grid) with store nodes.
	RoadRows, RoadCols, Stores int

	// Queries per measurement point.
	Queries int
	// NaiveQueries caps the workload for the brute-force baseline.
	NaiveQueries int

	// Ks is the swept result-size axis (Table 5: 5..100).
	Ks []int
	// KMax is the index's K (must cover max(Ks)).
	KMax int

	// HubFrac (h) and IndexFrac (m) are the default index parameters;
	// HFracs/MFracs are the sweep axes of Tables 6-9 and 15.
	HubFrac, IndexFrac float64
	HFracs, MFracs     []float64

	// Strategy is the default hub-selection strategy (Table 5: Degree
	// First).
	Strategy hub.Strategy

	// Workers is the maximum worker count the serving experiment sweeps
	// to (<= 0 uses GOMAXPROCS).
	Workers int

	Seed int64
}

// Validate reports configuration inconsistencies.
func (c Config) Validate() error {
	if c.DBLPNodes < 2 || c.EpinionsNodes < 2 || c.RoadRows < 2 || c.RoadCols < 2 {
		return fmt.Errorf("experiments: dataset sizes too small: %+v", c)
	}
	if len(c.Ks) == 0 {
		return fmt.Errorf("experiments: no k values configured")
	}
	for _, k := range c.Ks {
		if k > c.KMax {
			return fmt.Errorf("experiments: k=%d exceeds KMax=%d", k, c.KMax)
		}
	}
	if c.Queries < 1 {
		return fmt.Errorf("experiments: Queries must be >= 1")
	}
	return nil
}

// Small returns a test-sized configuration (sub-second experiments).
func Small() Config {
	return Config{
		DBLPNodes: 700, DBLPAttach: 5,
		EpinionsNodes: 600, EpinionsOut: 3,
		RoadRows: 24, RoadCols: 24, Stores: 40,
		Queries: 12, NaiveQueries: 4,
		Ks: []int{5, 10, 20}, KMax: 20,
		HubFrac: 0.1, IndexFrac: 0.1,
		HFracs:   []float64{0.03, 0.1, 0.15},
		MFracs:   []float64{0.03, 0.1, 0.15},
		Strategy: hub.DegreeFirst,
		Workers:  4,
		Seed:     1,
	}
}

// Default returns the bench-sized configuration used by cmd/rkbench and the
// root benchmarks: large enough for the paper's effects to show, small
// enough for the full suite to run in minutes.
func Default() Config {
	return Config{
		DBLPNodes: 12000, DBLPAttach: 7,
		EpinionsNodes: 8000, EpinionsOut: 3,
		RoadRows: 100, RoadCols: 100, Stores: 408,
		Queries: 60, NaiveQueries: 6,
		Ks: []int{5, 10, 20, 50, 100}, KMax: 100,
		HubFrac: 0.1, IndexFrac: 0.1,
		HFracs:   []float64{0.03, 0.05, 0.07, 0.1, 0.15},
		MFracs:   []float64{0.03, 0.05, 0.07, 0.1, 0.15},
		Strategy: hub.DegreeFirst,
		Seed:     20170321, // EDBT 2017 started March 21
	}
}
