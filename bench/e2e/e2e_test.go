package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"rkranks/internal/api"
	"rkranks/internal/experiments"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	buf, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny runs a workload on the Small datasets for a fraction of a second,
// with a ruler job small enough to leave the run short.
func tiny(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	res, err := runWorkload(context.Background(), w, params{
		data: experiments.Small(), seed: 7, seconds: 0.2, trace: traced, out: t.TempDir(),
		ruler: rulerJob{searches: 2, trips: 20},
	})
	if err != nil {
		t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
	}
	if !res.correct() || res.failed > 0 {
		t.Fatalf("%s (traced=%v): %d of %d failed, %d wrong", w.name, traced, res.failed, res.attempted, res.wrong)
	}
	return res
}

// emitted parses the result line report prints last.
func emitted(t *testing.T, res *result, traced bool) map[string]string {
	t.Helper()
	var out bytes.Buffer
	if err := report(&out, res, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var doc struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !doc.Correct || doc.Attempted < 1 || doc.Failed != 0 {
		t.Fatalf("result object %+v", doc)
	}
	units := map[string]string{}
	for name, m := range doc.Metrics {
		units[name] = m.Unit
	}
	return units
}

// TestWorkloadsEmitBenchmarkMetrics runs every workload of BENCHMARK.json
// untraced and traced on tiny graphs. Each run must answer correctly and
// emit exactly the metrics BENCHMARK.json names, with their units, and
// the two runs must return identical answers: the traced run's timers may
// not change what the stack serves.
func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Split(workloadNames(), ", "); !reflect.DeepEqual(got, names) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, names)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range workloads {
		plain, traced := tiny(t, w, false), tiny(t, w, true)
		if got := emitted(t, plain, false); !reflect.DeepEqual(got, endToEnd) {
			t.Errorf("%s untraced emits %v, BENCHMARK.json end_to_end is %v", w.name, got, endToEnd)
		}
		if got := emitted(t, traced, true); !reflect.DeepEqual(got, perLayer) {
			t.Errorf("%s traced emits %v, BENCHMARK.json per_layer is %v", w.name, got, perLayer)
		}
		if !reflect.DeepEqual(plain.answers, traced.answers) {
			t.Errorf("%s: traced and untraced runs answered differently", w.name)
		}
		if _, err := os.Stat(traced.tracePath); err != nil {
			t.Errorf("%s: trace file: %v", w.name, err)
		}
	}
}

// TestWrongAnswersCaught injects wrong answers at both checks: an answer
// cut short fails the inline shape check, and a reference computed on
// another graph makes the replay diff report mismatches.
func TestWrongAnswersCaught(t *testing.T) {
	r := request{algo: api.AlgoDynamic, q: 3, k: 3}
	good := &api.QueryResponse{Query: 3, K: 3, Entries: []api.Entry{{Node: 1, Rank: 1}, {Node: 5, Rank: 1}, {Node: 2, Rank: 4}}}
	if err := checkShape(good, r, 100); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	short := *good
	short.Entries = good.Entries[:2]
	if checkShape(&short, r, 100) == nil {
		t.Error("an answer with k-1 entries passed the shape check")
	}
	unordered := *good
	unordered.Entries = []api.Entry{good.Entries[1], good.Entries[0], good.Entries[2]}
	if checkShape(&unordered, r, 100) == nil {
		t.Error("an answer out of (rank, node) order passed the shape check")
	}

	d := experiments.Small()
	s, err := buildServing(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	other := d
	other.Seed++
	runner, err := experiments.NewRunner(other)
	if err != nil {
		t.Fatal(err)
	}
	reqs := replayStream(hotStream, s.g, 1)
	drv, err := newDriver(s)
	if err != nil {
		t.Fatal(err)
	}
	defer drv.close()
	c := drv.clients[0]
	if _, failed, wrong, err := replay(context.Background(), c, reqs, s.g, 0); err != nil || failed != 0 || wrong != 0 {
		t.Fatalf("replay against the served graph: failed=%d wrong=%d err=%v", failed, wrong, err)
	}
	if _, _, wrong, err := replay(context.Background(), c, reqs, runner.DBLP(), 0); err != nil || wrong == 0 {
		t.Fatalf("replay against another graph's answers: wrong=%d err=%v, want mismatches", wrong, err)
	}
}
