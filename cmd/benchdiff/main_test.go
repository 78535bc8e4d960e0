package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, r report) {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func baseReport() report {
	return report{
		Experiment: "figure6",
		Scale:      "small",
		ElapsedSec: 10,
		Tables: []table{{
			Title:   "efficiency",
			Headers: []string{"dataset", "k", "dynamic time (s)", "rank refinements", "aggregate QPS"},
			Rows: [][]string{
				{"dblp", "10", "0.100", "1500", "800"},
				{"dblp", "20", "0.200", "3000", "400"},
			},
		}},
	}
}

func runDiff(t *testing.T, baseDir, curDir string, extra ...string) (int, string) {
	t.Helper()
	var sb strings.Builder
	args := append([]string{"-baseline", baseDir, "-current", curDir}, extra...)
	code, err := run(args, &sb)
	if err != nil {
		t.Fatalf("benchdiff error: %v", err)
	}
	return code, sb.String()
}

func TestNoRegression(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "figure6", baseReport())
	cur := baseReport()
	cur.ElapsedSec = 11 // +10%, inside 25%
	cur.Tables[0].Rows[0][2] = "0.110"
	writeReport(t, curDir, "figure6", cur)
	code, out := runDiff(t, baseDir, curDir)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "0 regression(s)") {
		t.Errorf("output:\n%s", out)
	}
}

func TestTimeRegressionFails(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "figure6", baseReport())
	cur := baseReport()
	cur.Tables[0].Rows[1][2] = "0.300" // +50% on a time column
	writeReport(t, curDir, "figure6", cur)
	code, out := runDiff(t, baseDir, curDir, "-time-threshold", "0.25")
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "dynamic time (s)") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCounterRegressionFails(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "figure6", baseReport())
	cur := baseReport()
	cur.Tables[0].Rows[0][3] = "2500" // +67% refinements: algorithmic regression
	writeReport(t, curDir, "figure6", cur)
	code, out := runDiff(t, baseDir, curDir)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "rank refinements") {
		t.Errorf("output:\n%s", out)
	}
}

func TestThroughputDropFails(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "figure6", baseReport())
	cur := baseReport()
	cur.Tables[0].Rows[0][4] = "400" // QPS halved: higher-is-better direction
	writeReport(t, curDir, "figure6", cur)
	code, out := runDiff(t, baseDir, curDir, "-time-threshold", "0.25")
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "aggregate QPS") {
		t.Errorf("output:\n%s", out)
	}
}

func TestThroughputGainPasses(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "figure6", baseReport())
	cur := baseReport()
	cur.Tables[0].Rows[0][4] = "1600" // QPS doubled: improvement, not regression
	cur.Tables[0].Rows[0][2] = "0.050"
	writeReport(t, curDir, "figure6", cur)
	code, out := runDiff(t, baseDir, curDir, "-time-threshold", "0.25")
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "improved") {
		t.Errorf("improvements should be reported:\n%s", out)
	}
}

// TestWallClockLaxByDefault: a +50% wall-clock swing passes under the
// default time-threshold (machine noise), while the same swing on a
// counter column would fail — the two-gate design.
func TestWallClockLaxByDefault(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "figure6", baseReport())
	cur := baseReport()
	cur.Tables[0].Rows[1][2] = "0.300" // +50% time: within the 100% default
	writeReport(t, curDir, "figure6", cur)
	code, out := runDiff(t, baseDir, curDir)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestNoiseFloor(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	base := baseReport()
	base.Tables[0].Rows[0][2] = "0.0001" // sub-floor timing
	writeReport(t, baseDir, "figure6", base)
	cur := baseReport()
	cur.Tables[0].Rows[0][2] = "0.0009" // 9x, but both under 5ms
	writeReport(t, curDir, "figure6", cur)
	code, out := runDiff(t, baseDir, curDir)
	if code != 0 {
		t.Fatalf("noise-floor jitter failed the diff:\n%s", out)
	}
}

func TestShapeChangeWarns(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "figure6", baseReport())
	cur := baseReport()
	cur.Tables[0].Rows = cur.Tables[0].Rows[:1]
	writeReport(t, curDir, "figure6", cur)
	code, out := runDiff(t, baseDir, curDir)
	if code != 1 || !strings.Contains(out, "shape changed") {
		t.Fatalf("row count change: exit %d, output:\n%s", code, out)
	}

	// Same column count, renamed column: cells would pair up wrongly.
	cur = baseReport()
	cur.Tables[0].Headers[1] = "renamed"
	writeReport(t, curDir, "figure6", cur)
	code, out = runDiff(t, baseDir, curDir)
	if code != 1 || !strings.Contains(out, "shape changed") {
		t.Fatalf("header change: exit %d, output:\n%s", code, out)
	}
}

func TestMissingCurrentArtifactErrors(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "figure6", baseReport())
	var sb strings.Builder
	if _, err := run([]string{"-baseline", baseDir, "-current", curDir}, &sb); err == nil {
		t.Fatal("missing current artifact accepted")
	}
}

func TestExperimentsFlagSelects(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "figure6", baseReport())
	other := baseReport()
	other.Experiment = "latency"
	writeReport(t, baseDir, "latency", other)
	writeReport(t, curDir, "figure6", baseReport())
	// latency missing from current — but only figure6 is selected.
	code, out := runDiff(t, baseDir, curDir, "-experiments", "figure6")
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	if strings.Contains(out, "latency") {
		t.Errorf("unselected experiment compared:\n%s", out)
	}
}

func clusterReport() report {
	return report{
		Experiment: "serving_cluster",
		Scale:      "small",
		ElapsedSec: 2,
		Tables: []table{{
			Title: "cluster",
			Headers: []string{"dataset", "partitioner", "shards", "mean (ms)",
				"transferred (entries)", "naive gather (entries)", "saved (%)",
				"short-circuited", "escalations", "refinements"},
			Rows: [][]string{
				{"dblp", "degree", "4", "1.500", "800", "2000", "60%", "30", "12", "5000"},
			},
		}},
	}
}

// TestClusterCounterDirections pins the direction-aware gating of the
// serving_cluster columns: transfer growth and short-circuit loss are
// regressions; a transfer DROP is an improvement, not a failure.
func TestClusterCounterDirections(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "serving_cluster", clusterReport())

	// Transferred entries ballooning (pruning broke) must fail.
	cur := clusterReport()
	cur.Tables[0].Rows[0][4] = "1900" // +137%
	writeReport(t, curDir, "serving_cluster", cur)
	code, out := runDiff(t, baseDir, curDir, "-experiments", "serving_cluster")
	if code != 1 || !strings.Contains(out, "transferred") {
		t.Fatalf("transfer regression not caught (exit %d):\n%s", code, out)
	}

	// Short-circuited shards collapsing must fail (higher is better).
	cur = clusterReport()
	cur.Tables[0].Rows[0][7] = "11" // -63%
	writeReport(t, curDir, "serving_cluster", cur)
	code, out = runDiff(t, baseDir, curDir, "-experiments", "serving_cluster")
	if code != 1 || !strings.Contains(out, "short-circuited") {
		t.Fatalf("short-circuit regression not caught (exit %d):\n%s", code, out)
	}

	// Saved% collapsing must fail (higher is better).
	cur = clusterReport()
	cur.Tables[0].Rows[0][6] = "20%"
	writeReport(t, curDir, "serving_cluster", cur)
	code, out = runDiff(t, baseDir, curDir, "-experiments", "serving_cluster")
	if code != 1 || !strings.Contains(out, "saved") {
		t.Fatalf("saved%% regression not caught (exit %d):\n%s", code, out)
	}

	// Transfer dropping further is an improvement, and latency noise is
	// gated by the lax wall-clock threshold: both pass.
	cur = clusterReport()
	cur.Tables[0].Rows[0][4] = "500"
	cur.Tables[0].Rows[0][3] = "2.200" // +47% wall clock, inside 100%
	writeReport(t, curDir, "serving_cluster", cur)
	code, out = runDiff(t, baseDir, curDir, "-experiments", "serving_cluster")
	if code != 0 {
		t.Fatalf("improvement flagged as regression:\n%s", out)
	}
	if !strings.Contains(out, "improved") {
		t.Errorf("transfer improvement not reported:\n%s", out)
	}
}

func batchReport() report {
	return report{
		Experiment: "serving_batch",
		Scale:      "small",
		ElapsedSec: 2,
		Tables: []table{{
			Title: "batch",
			Headers: []string{"dataset", "batch", "dup (%)", "goodput (q/s)", "baseline (q/s)",
				"speedup", "p99 (ms)", "hit rate (%)", "coalesced", "rpcs/query"},
			Rows: [][]string{
				{"dblp", "8", "50", "500", "250", "2.00x", "30.00", "43%", "7", "0.58"},
			},
		}},
	}
}

// TestServingBatchColumnDirections pins the direction-aware gating of
// the serving_batch columns: hit-rate and coalesce collapse are
// regressions (higher is better), RPCs-per-query growth is a regression
// (lower is better), and the wall-clock goodput/p99 columns stay on the
// lax gate.
func TestServingBatchColumnDirections(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "serving_batch", batchReport())

	// Hit rate collapsing must fail (higher is better).
	cur := batchReport()
	cur.Tables[0].Rows[0][7] = "10%"
	writeReport(t, curDir, "serving_batch", cur)
	code, out := runDiff(t, baseDir, curDir, "-experiments", "serving_batch")
	if code != 1 || !strings.Contains(out, "hit rate") {
		t.Fatalf("hit-rate regression not caught (exit %d):\n%s", code, out)
	}

	// Coalesced collapsing must fail (higher is better).
	cur = batchReport()
	cur.Tables[0].Rows[0][8] = "1"
	writeReport(t, curDir, "serving_batch", cur)
	code, out = runDiff(t, baseDir, curDir, "-experiments", "serving_batch")
	if code != 1 || !strings.Contains(out, "coalesced") {
		t.Fatalf("coalesce regression not caught (exit %d):\n%s", code, out)
	}

	// RPCs per query ballooning must fail (lower is better: batch
	// scatter degraded back toward per-query fan-out).
	cur = batchReport()
	cur.Tables[0].Rows[0][9] = "2.00"
	writeReport(t, curDir, "serving_batch", cur)
	code, out = runDiff(t, baseDir, curDir, "-experiments", "serving_batch")
	if code != 1 || !strings.Contains(out, "rpcs/query") {
		t.Fatalf("rpcs-per-query regression not caught (exit %d):\n%s", code, out)
	}

	// RPCs per query dropping is an improvement; goodput wobble and p99
	// noise stay inside the lax wall-clock gate.
	cur = batchReport()
	cur.Tables[0].Rows[0][9] = "0.30"
	cur.Tables[0].Rows[0][3] = "300" // -40% goodput: inside the 100% gate
	cur.Tables[0].Rows[0][6] = "55.00"
	writeReport(t, curDir, "serving_batch", cur)
	code, out = runDiff(t, baseDir, curDir, "-experiments", "serving_batch")
	if code != 0 {
		t.Fatalf("lax columns failed the build:\n%s", out)
	}
	if !strings.Contains(out, "improved") {
		t.Errorf("rpcs improvement not reported:\n%s", out)
	}

	// Under a tightened wall-clock gate, a goodput collapse fails in the
	// higher-is-better direction.
	cur = batchReport()
	cur.Tables[0].Rows[0][3] = "100" // -80%
	writeReport(t, curDir, "serving_batch", cur)
	code, out = runDiff(t, baseDir, curDir, "-experiments", "serving_batch", "-time-threshold", "0.5")
	if code != 1 || !strings.Contains(out, "goodput") {
		t.Fatalf("goodput collapse not caught (exit %d):\n%s", code, out)
	}
}
