// Command e2e is the end-to-end serving benchmark. It builds each
// deployment shape in process from the public constructors, drives it
// over loopback HTTP from two client connections, checks every answer,
// and prints each metric by name with its unit. See README.md.
//
//	go run . --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// The last line of output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
// metrics are the per-layer breakdown and the spans are written to
// <out>/trace-<workload>.json.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/experiments"
	"rkranks/internal/graph"
)

// workload is one deployment shape plus one traffic mix. Every phase is
// sized by request counts fixed from --seconds, never by wall time, so two
// commits measured with the same flags do the same work.
type workload struct {
	name   string
	build  func(experiments.Config, *tracer) (*stack, error)
	stream func(*graph.Graph, *rand.Rand, int) []request
	// fixedSet draws the stream from datasetSeed, so every run sends the
	// same requests in each phase, in an order the traffic seed shuffles.
	fixedSet bool
	// rate is the open loop's arrivals per second.
	rate float64
	// warmPerSec and closedPerSec size the untimed closed-loop warm-up
	// and the closed-loop throughput phase, per measured second.
	warmPerSec, closedPerSec float64
	// prefill makes the warm-up send, once each, every distinct request
	// of the timed phases, so that the response cache answers them all.
	prefill bool
	// expect lists the layers every traced query crosses.
	expect []string
	// setups is how many times a run builds the stack; setup_s is the
	// median. A set-up of milliseconds takes more repeats to be steady.
	// The count is fixed because the graph package keeps every graph it
	// ever packed, so each set-up adds to heap_mb.
	setups int
}

// workloads. Why each exists is recorded in BENCHMARK.json and README.md.
// serve-deep's open loop runs at about a quarter of what the engines
// sustain in the closed loop, so its latency is per-query time: at 100 req/s and
// more, queueing behind the heavy queries depended on their arrival order
// and moved the run's p50 by 20%. serve-hot's cache is prefilled because
// the Zipf tail keeps bringing new keys: after 150,000 requests one in 18
// still missed, which put the p95 on the border between hits and misses.
// The serving stack takes seconds to set up, so it is set up twice.
var workloads = []workload{
	{name: "serve-hot", build: buildServing, stream: hotStream, prefill: true,
		rate: 2000, closedPerSec: 8000, expect: []string{"server", "cache"}, setups: 2},
	{name: "serve-deep", build: buildServing, stream: deepStream, fixedSet: true,
		rate: 40, warmPerSec: 40, closedPerSec: 80, expect: []string{"server", "cache"}, setups: 2},
	{name: "cluster-scatter", build: buildCluster, stream: scatterStream, fixedSet: true,
		rate: 30, warmPerSec: 30, closedPerSec: 60, expect: []string{"server", "cluster"}, setups: 3},
	{name: "live-churn", build: buildLive, stream: churnStream,
		rate: 2000, warmPerSec: 1000, closedPerSec: 4000, expect: []string{"server", "cache"}, setups: 31},
}

// params are one invocation's settings.
type params struct {
	data    experiments.Config // dataset sizes and generator seeds
	seed    int64              // traffic seed
	seconds float64            // open-loop duration
	trace   bool
	out     string
	ruler   rulerJob
}

// result is one workload run.
type result struct {
	workload          string
	attempted, failed int
	wrong             int
	endToEnd          []metric
	perLayer          []metric
	raw               []metric      // unscaled timings and the ruler, printed only
	answers           [][]api.Entry // replayed answers, in replay order
	tracePath         string
}

func (r *result) correct() bool { return r.wrong == 0 }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, one of "+workloadNames())
	seed := fs.Int64("seed", 1, "traffic seed: the same seed sends the same requests")
	seconds := fs.Float64("seconds", 10, "open-loop phase length; the other phases scale with it")
	trace := fs.Int("trace", 0, "1 records per-layer spans and reports the per-layer metrics")
	out := fs.String("out", ".bench_build/e2e-out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2e: want --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 {
		fmt.Fprintf(stderr, "e2e: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	w := workloads[i]
	p := params{data: experiments.Default(), seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, ruler: benchRuler}
	h := hostInfo(p.seed)
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU, h.Seed)
	res, err := runWorkload(context.Background(), w, p)
	if err != nil {
		fmt.Fprintf(stderr, "e2e: %s: %v\n", w.name, err)
		return 2
	}
	if err := report(stdout, res, p.trace); err != nil {
		fmt.Fprintf(stderr, "e2e: %s: %v\n", w.name, err)
		return 2
	}
	if !res.correct() {
		fmt.Fprintf(stderr, "e2e: %s: %d wrong answers\n", w.name, res.wrong)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkload sets the stack up, runs the phases, checks the answers and
// computes the metrics. The ruler is measured before the set-ups and
// between the rounds of the timed phases, so its samples span the run.
func runWorkload(ctx context.Context, w workload, p params) (*result, error) {
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	rl, err := newRuler(p.ruler)
	if err != nil {
		return nil, err
	}
	defer rl.close()
	if err := rl.measure(); err != nil {
		return nil, err
	}
	var s *stack
	times := make([]setupTimes, w.setups)
	for i := range times {
		if s != nil {
			s.close()
		}
		runtime.GC() // each set-up starts from the same heap
		start := time.Now()
		var err error
		if s, err = w.build(p.data, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times[i] = s.setup
		times[i].total = time.Since(start)
	}
	defer s.close()

	count := func(perSec float64) int { return int(perSec*p.seconds + 0.5) }
	nWarm, nOpen, nClosed := count(w.warmPerSec), max(1, count(w.rate)), max(1, count(w.closedPerSec))
	traffic := rand.New(rand.NewSource(p.seed))
	src := traffic
	if w.fixedSet {
		src = rand.New(rand.NewSource(datasetSeed))
	}
	reqs := w.stream(s.g, src, nWarm+nOpen+nClosed)
	warm, open, closed := reqs[:nWarm], reqs[nWarm:nWarm+nOpen], reqs[nWarm+nOpen:]
	if w.fixedSet {
		for _, phase := range [][]request{warm, open, closed} {
			traffic.Shuffle(len(phase), func(i, j int) { phase[i], phase[j] = phase[j], phase[i] })
		}
	}
	if w.prefill {
		warm = distinct(slices.Concat(open, closed))
	}
	verify := replayStream(w.stream, s.g, p.seed)
	var edges *graph.EdgeStore // the boot graph's edges, when the workload mutates it
	for _, r := range reqs {
		if r.muts != nil {
			edges = graph.NewEdgeStore(s.g)
			break
		}
	}

	d, err := newDriver(s)
	if err != nil {
		return nil, err
	}
	defer d.close()
	warmOut := d.run(ctx, warm, 0, false)

	o := observations{setups: times, labelBytes: s.labelBytes}
	if tr != nil {
		s.eng.take()
		s.muts.take()
	}
	o.before = readCounters(s, rl)
	if o.open, err = rounds(ctx, d, rl, open, w.rate, p.trace); err != nil {
		return nil, err
	}
	o.after = readCounters(s, rl)
	if tr != nil {
		o.eng = s.eng.take()
		o.patches, o.rebuilds = s.muts.take()
		o.layers = tr.analyze(w.expect)
	}
	if o.closed, err = rounds(ctx, d, rl, closed, 0, false); err != nil {
		return nil, err
	}
	o.ruler = rl.samples
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	o.heapBytes = mem.HeapAlloc

	res := &result{workload: w.name, endToEnd: o.endToEnd(), perLayer: o.perLayer(p.trace), raw: o.raw()}
	for _, outs := range slices.Concat([][]outcome{warmOut}, o.open.rounds, o.closed.rounds) {
		for _, x := range outs {
			res.attempted++
			if x.failed {
				res.failed++
			}
			if x.wrong {
				res.wrong++
			}
		}
	}
	ref, wantGen := s.g, uint64(0)
	if edges != nil {
		var err error
		if ref, wantGen, err = mirror(edges, d.applied); err != nil {
			return nil, err
		}
	}
	answers, failed, wrong, err := replay(ctx, d.clients[0], verify, ref, wantGen)
	if err != nil {
		return nil, err
	}
	res.answers = answers
	res.attempted += len(verify)
	res.failed += failed
	res.wrong += wrong

	if tr != nil {
		if res.tracePath, err = tr.write(p.out, w.name, hostInfo(p.seed)); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, nil
}

// roundsPerPhase is how many rounds a timed phase is cut into.
const roundsPerPhase = 10

// phase is one timed phase: each round's outcomes, and the ruler
// measurements taken before every round and after the last, which give
// the host's speed while the phase ran.
type phase struct {
	rounds [][]outcome
	ruler  []rulerTimes
}

// rounds sends reqs in up to roundsPerPhase consecutive rounds between
// ruler measurements. An open-loop round starts its schedule afresh. The
// phase starts from a collected heap, so the garbage of what came before
// is not collected on its clock in some runs only.
func rounds(ctx context.Context, d *driver, rl *ruler, reqs []request, rate float64, ids bool) (phase, error) {
	n := min(roundsPerPhase, len(reqs))
	ph := phase{rounds: make([][]outcome, 0, n)}
	runtime.GC()
	from := len(rl.samples)
	for j := range n + 1 {
		if err := rl.measure(); err != nil {
			return ph, err
		}
		if j < n {
			ph.rounds = append(ph.rounds, d.run(ctx, reqs[j*len(reqs)/n:(j+1)*len(reqs)/n], rate, ids))
		}
	}
	ph.ruler = rl.samples[from:]
	return ph, nil
}

// report prints every metric as "<workload> <name> <value> <unit>", then,
// as the last line, the result object: correct, attempted, failed, and
// the end-to-end metrics (per-layer when traced) with their units.
func report(w io.Writer, r *result, traced bool) error {
	fmt.Fprintf(w, "# %s attempted=%d failed=%d wrong=%d\n", r.workload, r.attempted, r.failed, r.wrong)
	if r.tracePath != "" {
		fmt.Fprintf(w, "# %s trace %s\n", r.workload, r.tracePath)
	}
	for _, m := range slices.Concat(r.endToEnd, r.raw, r.perLayer) {
		fmt.Fprintf(w, "%s %s %g %s\n", r.workload, m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range ms {
		doc.Metrics[m.name] = value{m.value, m.unit}
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(buf))
	return err
}

// host describes the machine a run measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Seed       int64  `json:"seed"`
}

func hostInfo(seed int64) host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), seed}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
