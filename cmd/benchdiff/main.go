// Command benchdiff compares two sets of rkbench BENCH_<experiment>.json
// artifacts — a committed baseline and a fresh run — and fails (exit 1)
// when any tracked experiment regressed beyond the threshold. CI runs it
// after the bench job so a perf regression breaks the build with a diff
// a human can read.
//
// Usage:
//
//	benchdiff -baseline bench/baseline -current . -threshold 0.25
//	benchdiff -baseline bench/baseline -current . -experiments figure6,latency
//
// What is compared, per experiment:
//
//   - elapsed_sec: total wall clock of the experiment;
//   - every numeric metric cell of every table, matched by position, with
//     the direction inferred from the column header: "QPS", "speedup",
//     "achieved", "goodput"/"q/s", "hit rate", and "coalesce" columns
//     regress when they FALL, time/latency/work columns ("(s)", "(ms)",
//     "refine...", "settled", "rpcs", ...) regress when they RISE.
//     Identity columns (dataset, k, workers, ...) and cells below the
//     noise floor are skipped;
//   - table shape: a changed table count, row count or header list is a
//     regression, since cells are matched by position and a reshaped
//     table would otherwise drop out of the gate unnoticed. Reshaping an
//     experiment therefore comes with a rewritten baseline.
//
// Two gates apply. Work-counter columns are deterministic for a fixed
// seed and config, so they catch algorithmic regressions
// machine-independently and fail beyond -threshold (default 25%).
// Wall-clock-dependent columns (times, latencies, QPS, elapsed_sec)
// carry machine noise — the committed baseline was produced on different
// hardware than the CI runner — so they fail only beyond the laxer
// -time-threshold (default 100%), catching catastrophic slowdowns
// without turning runner jitter into red builds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

type report struct {
	Experiment string  `json:"experiment"`
	Scale      string  `json:"scale"`
	ElapsedSec float64 `json:"elapsed_sec"`
	Tables     []table `json:"tables"`
}

type table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		baseDir   = fs.String("baseline", "bench/baseline", "directory holding the committed BENCH_*.json baselines")
		curDir    = fs.String("current", ".", "directory holding the freshly produced BENCH_*.json artifacts")
		threshold = fs.Float64("threshold", 0.25, "relative regression beyond which deterministic (work-counter) metrics fail (0.25 = 25%)")
		timeThr   = fs.Float64("time-threshold", 1.0, "relative regression beyond which wall-clock-dependent metrics (times, latencies, QPS, elapsed_sec) fail; laxer by default because they carry machine noise across runners")
		expFlag   = fs.String("experiments", "", "comma-separated experiments to compare (default: every baseline file)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	names, err := trackedExperiments(*baseDir, *expFlag)
	if err != nil {
		return 2, err
	}
	if len(names) == 0 {
		return 2, fmt.Errorf("no baselines found in %s", *baseDir)
	}

	regressions := 0
	for _, name := range names {
		base, err := readReport(filepath.Join(*baseDir, "BENCH_"+name+".json"))
		if err != nil {
			return 2, err
		}
		cur, err := readReport(filepath.Join(*curDir, "BENCH_"+name+".json"))
		if err != nil {
			return 2, fmt.Errorf("current artifact for %q missing (did the bench job run it?): %w", name, err)
		}
		regressions += diffExperiment(stdout, name, base, cur, *threshold, *timeThr)
	}
	fmt.Fprintf(stdout, "\nbenchdiff: %d experiment(s), %d regression(s), thresholds %.0f%% (counters) / %.0f%% (wall clock)\n",
		len(names), regressions, *threshold*100, *timeThr*100)
	if regressions > 0 {
		return 1, nil
	}
	return 0, nil
}

func trackedExperiments(baseDir, expFlag string) ([]string, error) {
	if expFlag != "" {
		parts := strings.Split(expFlag, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts, nil
	}
	matches, err := filepath.Glob(filepath.Join(baseDir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, m := range matches {
		base := filepath.Base(m)
		names = append(names, strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_"), ".json"))
	}
	sort.Strings(names)
	return names, nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// diffExperiment compares one experiment and returns the number of
// regressions found. threshold gates deterministic counter columns,
// timeThr gates wall-clock-dependent ones.
func diffExperiment(w io.Writer, name string, base, cur *report, threshold, timeThr float64) int {
	fmt.Fprintf(w, "== %s (scale %s)\n", name, base.Scale)
	regressions := 0

	// Wall clock of the whole experiment.
	if verdict := compare(base.ElapsedSec, cur.ElapsedSec, false, timeThr, minSeconds); verdict != "" {
		fmt.Fprintf(w, "  %-40s %10.3f -> %10.3f  %s\n", "elapsed_sec", base.ElapsedSec, cur.ElapsedSec, verdict)
		if verdict[0] == 'R' {
			regressions++
		}
	}

	if len(base.Tables) != len(cur.Tables) {
		fmt.Fprintf(w, "  REGRESSION: table count changed (%d -> %d); rewrite the baseline with the new shape\n", len(base.Tables), len(cur.Tables))
		return regressions + 1
	}
	for ti, bt := range base.Tables {
		ct := cur.Tables[ti]
		if len(bt.Rows) != len(ct.Rows) || !slices.Equal(bt.Headers, ct.Headers) {
			fmt.Fprintf(w, "  REGRESSION: table %q shape changed (%d rows %v -> %d rows %v); rewrite the baseline with the new shape\n",
				bt.Title, len(bt.Rows), bt.Headers, len(ct.Rows), ct.Headers)
			regressions++
			continue
		}
		for ci, header := range bt.Headers {
			kind := columnKind(header)
			if !kind.tracked {
				continue
			}
			thr := threshold
			if kind.wallClock {
				thr = timeThr
			}
			for ri := range bt.Rows {
				if ci >= len(bt.Rows[ri]) || ci >= len(ct.Rows[ri]) {
					continue
				}
				bv, bok := cellValue(bt.Rows[ri][ci])
				cv, cok := cellValue(ct.Rows[ri][ci])
				if !bok || !cok {
					continue
				}
				if verdict := compare(bv, cv, kind.higherBetter, thr, kind.floor); verdict != "" {
					label := fmt.Sprintf("%s[%s]", header, rowKey(bt.Rows[ri], ci))
					fmt.Fprintf(w, "  %-40s %10.3f -> %10.3f  %s\n", label, bv, cv, verdict)
					if verdict[0] == 'R' {
						regressions++
					}
				}
			}
		}
	}
	return regressions
}

// Noise floors: values this small in the baseline are jitter, not signal.
const (
	minSeconds  = 0.005 // 5ms
	minCounter  = 10
	minRate     = 10  // qps-like
	minLatencyM = 0.5 // ms
)

// metricKind classifies a table column: direction, noise floor, whether
// it is a tracked metric at all (identity axes like "dataset" or "k" are
// not), and whether it depends on wall clock (machine-noisy, gated by the
// laxer -time-threshold) or is a deterministic work counter (gated by
// -threshold).
type metricKind struct {
	higherBetter bool
	floor        float64
	tracked      bool
	wallClock    bool
}

func columnKind(header string) metricKind {
	h := strings.ToLower(header)
	switch {
	case strings.Contains(h, "offered"):
		// Sweep axis, not an outcome (the load generator's arrival rate).
		return metricKind{}
	case strings.Contains(h, "qps"), strings.Contains(h, "speedup"), strings.Contains(h, "achieved"):
		return metricKind{higherBetter: true, floor: minRate, tracked: true, wallClock: true}
	case strings.Contains(h, "(ms)"):
		return metricKind{floor: minLatencyM, tracked: true, wallClock: true}
	case strings.Contains(h, "(s)"), strings.Contains(h, "time"):
		return metricKind{floor: minSeconds, tracked: true, wallClock: true}
	case strings.Contains(h, "refine"), strings.Contains(h, "settled"),
		strings.Contains(h, "pruned"), strings.Contains(h, "visited"):
		return metricKind{floor: minCounter, tracked: true}
	// Steady-state allocation cost per query (latency experiment): lower
	// is better. Near-deterministic — the arena and stamped-array reuse
	// pin the hot path, and the floors absorb the residual runtime noise
	// (background timer/GC bookkeeping caught by the ReadMemStats window).
	case strings.Contains(h, "allocs/"):
		return metricKind{floor: 2, tracked: true}
	case strings.Contains(h, "bytes/"):
		return metricKind{floor: 512, tracked: true}
	// Hub-label columns (hublabel experiment), deterministic for a fixed
	// seed: the labeling footprint regresses when it RISES, the count of
	// label-certified prunes when it FALLS (a weaker labeling pushes
	// candidates back onto Dijkstra refinements).
	case strings.Contains(h, "label bytes"):
		return metricKind{floor: 1024, tracked: true}
	case strings.Contains(h, "label prunes"):
		return metricKind{higherBetter: true, floor: minCounter, tracked: true}
	// Cluster scatter-gather counters (serving_cluster): deterministic
	// shard-work metrics. Entries moved and escalation rounds regress
	// when they RISE; shards short-circuited by their rank floor and the
	// transfer saving regress when they FALL.
	case strings.Contains(h, "entries"), strings.Contains(h, "escalation"):
		return metricKind{floor: minCounter, tracked: true}
	case strings.Contains(h, "short-circuit"):
		return metricKind{higherBetter: true, floor: minCounter, tracked: true}
	case strings.Contains(h, "saved"):
		return metricKind{higherBetter: true, floor: 1, tracked: true}
	// Cache + batch-scatter columns (serving_batch). Hit rate, coalesce
	// count, and RPCs-per-query are deterministic for a fixed seed
	// (sequential batches classify hits and flights in stream order);
	// goodput is wall clock.
	case strings.Contains(h, "hit rate"), strings.Contains(h, "coalesce"):
		return metricKind{higherBetter: true, floor: 1, tracked: true}
	case strings.Contains(h, "rpcs"):
		return metricKind{floor: 0.05, tracked: true}
	case strings.Contains(h, "goodput"), strings.Contains(h, "q/s"):
		return metricKind{higherBetter: true, floor: minRate, tracked: true, wallClock: true}
	}
	return metricKind{}
}

// cellValue parses a metric cell, tolerating the "%"/"x" suffixes the
// tables use for percentages and speedups.
func cellValue(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// compare returns a verdict line fragment: "REGRESSION ..." (counts
// against the build), "improved ..." (informational), or "" (within
// threshold or below the noise floor).
func compare(base, cur float64, higherBetter bool, threshold, floor float64) string {
	if base < floor && cur < floor {
		return ""
	}
	if base == 0 {
		return ""
	}
	rel := (cur - base) / base
	if higherBetter {
		rel = -rel
	}
	switch {
	case rel > threshold:
		return fmt.Sprintf("REGRESSION (%+.0f%%)", 100*(cur-base)/base)
	case rel < -threshold:
		return fmt.Sprintf("improved (%+.0f%%)", 100*(cur-base)/base)
	}
	return ""
}

// rowKey labels a finding with the row's identity cells (everything before
// the metric column that does not parse as a pure metric), so "p99
// (ms)[dblp 400]" reads immediately.
func rowKey(row []string, metricCol int) string {
	var parts []string
	for i, c := range row {
		if i >= metricCol || i >= 3 {
			break
		}
		parts = append(parts, strings.TrimSpace(c))
	}
	return strings.Join(parts, " ")
}
