package main

import (
	"runtime"
	"slices"
	"time"

	"rkranks/internal/cache"
	"rkranks/internal/cluster"
	"rkranks/internal/core"
	"rkranks/internal/obs"
	"rkranks/internal/stats"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// hist is a stage histogram's count and sum (seconds).
type hist struct {
	n   int64
	sum float64
}

func readHist(h *obs.Histogram) hist { return hist{h.Count(), h.Sum()} }

// meanMS is the mean observation between two readings, in ms.
func (h hist) meanMS(before hist) float64 {
	return ratio(1000*(h.sum-before.sum), float64(h.n-before.n))
}

// counters are the program's own instruments, read before and after the
// open phase so the layer counters cover exactly the latency window.
type counters struct {
	mem        runtime.MemStats
	queries    int64 // front server /v1/query requests
	shed       int64
	admission  hist
	snapshot   hist // live store epoch-barrier wait
	cache      cache.Snapshot
	cluster    cluster.Snapshot
	replicaReq [][]int64 // per shard group, per replica server
	failovers  int64
	rebuilds   int64
	// What the ruler had allocated, which mem also counts.
	rulerMallocs, rulerBytes uint64
}

func readCounters(s *stack, rl *ruler) counters {
	c := counters{
		queries:      s.om.Requests.With("query").Value(),
		shed:         s.om.Shed.Value(),
		admission:    readHist(s.om.StageSeconds[obs.StageAdmission]),
		snapshot:     readHist(s.om.StageSeconds[obs.StageLiveSnapshot]),
		failovers:    s.om.ReplicaFailovers.Value(),
		rebuilds:     s.om.MutationRebuilds.Value(),
		rulerMallocs: rl.mallocs,
		rulerBytes:   rl.bytes,
	}
	if s.cache != nil {
		c.cache = s.cache.Cache().Stats()
	}
	if s.coord != nil {
		c.cluster = *s.coord.ClusterSnapshot().(*cluster.Snapshot)
	}
	for _, group := range s.replicaOM {
		reqs := make([]int64, len(group))
		for i, om := range group {
			reqs[i] = om.Requests.With("query").Value()
		}
		c.replicaReq = append(c.replicaReq, reqs)
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// observations is everything a run measured, ready to turn into metrics.
type observations struct {
	setups        []setupTimes
	open, closed  phase
	before, after counters
	heapBytes     uint64
	labelBytes    int64
	ruler         []rulerTimes // every measurement of the run
	// Traced runs only.
	eng               map[core.Algorithm]algoWork
	patches, rebuilds []float64
	layers            layerTimes
}

// endToEnd computes what a user of the system sees. Timings are scaled
// to the reference host's speed by the ruler measurements taken around
// them: the open phase's for latency, the closed phase's for throughput,
// and the whole run's for set-up, which spans most of it.
func (o *observations) endToEnd() []metric {
	return []metric{
		{"setup_s", o.setupS() * speed(o.ruler), "s"},
		{"req_p50_ms", o.latency(isQuery, 50) * speed(o.open.ruler), "ms"},
		{"throughput_rps", o.throughput() / speed(o.closed.ruler), "1/s"},
		{"heap_mb", float64(o.heapBytes) / (1 << 20), "MiB"},
	}
}

// raw is the end-to-end timings as measured, before scaling, and the
// ruler itself: printed, not part of the result object.
func (o *observations) raw() []metric {
	return []metric{
		{"raw.setup_s", o.setupS(), "s"},
		{"raw.req_p50_ms", o.latency(isQuery, 50), "ms"},
		{"raw.throughput_rps", o.throughput(), "1/s"},
		{"host.speed", speed(o.ruler), "x"},
		{"host.speed_open", speed(o.open.ruler), "x"},
		{"host.speed_closed", speed(o.closed.ruler), "x"},
		{"host.ruler_ms", ms(median(o.ruler, rulerTimes.total)), "ms"},
	}
}

func (o *observations) setupS() float64 {
	return median(o.setups, func(s setupTimes) time.Duration { return s.total }).Seconds()
}

// latency is the open phase's p-th percentile latency (ms) of the
// outcomes keep selects: the median over rounds of each round's
// percentile, so that a burst of outside load moves one round rather than
// the result. Rounds without such outcomes are left out.
func (o *observations) latency(keep func(outcome) bool, p float64) float64 {
	var vals []float64
	for _, r := range o.open.rounds {
		if xs := latencies(r, keep); len(xs) > 0 {
			vals = append(vals, pct(xs, p))
		}
	}
	return pct(vals, 50)
}

// throughput is the closed phase's requests per second: every round's
// requests over the rounds' summed durations. The rounds are too short
// for a median of their rates to be steadier than the total.
func (o *observations) throughput() float64 {
	var n int
	var took time.Duration
	for _, r := range o.closed.rounds {
		var end time.Duration
		for _, x := range r {
			end = max(end, x.end)
		}
		n += len(r)
		took += end
	}
	return ratio(float64(n), took.Seconds())
}

// perLayer computes the layer metrics, named after the repo's modules.
// Counters come from the program's own instruments; the span-derived
// times and the engine tallies exist only in traced runs.
func (o *observations) perLayer(traced bool) []metric {
	b, a := o.before, o.after
	open := slices.Concat(o.open.rounds...)
	var late, wait []float64
	for _, x := range open {
		late = append(late, ms(x.late))
		wait = append(wait, ms(x.wait))
	}
	queries := float64(a.queries - b.queries)
	lookups := float64((a.cache.Hits + a.cache.Misses + a.cache.Coalesced) - (b.cache.Hits + b.cache.Misses + b.cache.Coalesced))
	cq := float64(a.cluster.Queries - b.cluster.Queries)
	var shardCalls int64
	for i := range a.cluster.Shards {
		shardCalls += a.cluster.Shards[i].Queries - b.cluster.Shards[i].Queries
	}
	esc := float64(a.cluster.Escalations - b.cluster.Escalations)
	short := float64(a.cluster.ShortCircuited - b.cluster.ShortCircuited)
	opened := float64(len(open))
	mallocs := (a.mem.Mallocs - b.mem.Mallocs) - (a.rulerMallocs - b.rulerMallocs)
	allocated := (a.mem.TotalAlloc - b.mem.TotalAlloc) - (a.rulerBytes - b.rulerBytes)

	m := []metric{
		{"client.pacer_late_p95_ms", pct(late, 95), "ms"},
		{"client.conn_wait_p95_ms", pct(wait, 95), "ms"},
		{"client.req_p95_ms", o.latency(isQuery, 95), "ms"},
		{"client.req_p99_ms", pct(latencies(open, isQuery), 99), "ms"},
		{"server.admission_wait_ms_per_req", a.admission.meanMS(b.admission), "ms"},
		{"server.rejected_frac", ratio(float64(a.shed-b.shed), queries), "frac"},
		{"cache.hit_ratio", ratio(float64(a.cache.Hits-b.cache.Hits), lookups), "frac"},
		{"cache.coalesced_frac", ratio(float64(a.cache.Coalesced-b.cache.Coalesced), lookups), "frac"},
		{"cache.evictions", float64(a.cache.Evictions - b.cache.Evictions), "count"},
		{"cache.bytes", float64(a.cache.Bytes), "B"},
		{"hub.label_bytes", float64(o.labelBytes), "B"},
		{"cluster.shard_calls_per_query", ratio(float64(shardCalls), cq), "count"},
		{"cluster.round2_frac", ratio(esc, float64(shardCalls)), "frac"},
		{"cluster.short_circuit_frac", ratio(short, short+esc), "frac"},
		{"cluster.entries_per_query", ratio(float64(a.cluster.EntriesTransferred-b.cluster.EntriesTransferred), cq), "count"},
		{"cluster.replica.calls_imbalance", imbalance(b.replicaReq, a.replicaReq), "frac"},
		{"cluster.replica.failovers", float64(a.failovers - b.failovers), "count"},
		{"live.mutate_p50_ms", pct(latencies(open, isMutate), 50), "ms"},
		{"live.mutate_p95_ms", pct(latencies(open, isMutate), 95), "ms"},
		{"live.snapshot_wait_ms_per_req", a.snapshot.meanMS(b.snapshot), "ms"},
		{"live.rebuilds", float64(a.rebuilds - b.rebuilds), "count"},
		{"setup.graph_s", median(o.setups, func(s setupTimes) time.Duration { return s.graph }).Seconds(), "s"},
		{"setup.index_s", median(o.setups, func(s setupTimes) time.Duration { return s.index }).Seconds(), "s"},
		{"setup.labels_s", median(o.setups, func(s setupTimes) time.Duration { return s.labels }).Seconds(), "s"},
		{"setup.boot_s", median(o.setups, func(s setupTimes) time.Duration { return s.boot }).Seconds(), "s"},
		{"proc.allocs_per_req", ratio(float64(mallocs), opened), "count"},
		{"proc.bytes_per_req", ratio(float64(allocated), opened), "B"},
	}
	if !traced {
		return m
	}

	lt := o.layers
	perReq := func(name string) float64 { return ratio(ms(lt.self[name]), float64(lt.requests)) }
	var all algoWork
	for _, w := range o.eng {
		all.calls += w.calls
		all.busy += w.busy
		all.st.Add(w.st)
	}
	busy := func(w algoWork) float64 { return ratio(ms(w.busy), float64(w.calls)) }
	perCall := func(v int64, w algoWork) float64 { return ratio(float64(v), float64(w.calls)) }
	ix, hl := o.eng[core.Indexed], o.eng[core.HubLabel]
	return append(m,
		metric{"api.wire_ms_per_req", perReq("client"), "ms"},
		metric{"server.self_ms_per_req", perReq("server"), "ms"},
		metric{"cache.self_ms_per_req", perReq("cache"), "ms"},
		metric{"core.busy_ms_per_query", busy(all), "ms"},
		metric{"core.busy_ms_per_query.indexed", busy(ix), "ms"},
		metric{"core.busy_ms_per_query.hublabel", busy(hl), "ms"},
		metric{"core.busy_ms_per_query.dynamic", busy(o.eng[core.Dynamic]), "ms"},
		metric{"core.refinements_per_query", perCall(int64(all.st.Refinements), all), "count"},
		metric{"core.refine_settled_per_query", perCall(all.st.RefineSettled, all), "count"},
		metric{"core.tree_settled_per_query", perCall(int64(all.st.TreeSettled), all), "count"},
		metric{"core.pruned_by_bound_per_query", perCall(int64(all.st.PrunedByBound), all), "count"},
		metric{"core.prune_ratio", ratio(float64(all.st.PrunedByBound), float64(all.st.PrunedByBound+all.st.Refinements)), "frac"},
		metric{"ridx.index_hits_per_query", perCall(int64(ix.st.IndexHits), ix), "count"},
		metric{"ridx.seeded_per_query", perCall(int64(ix.st.SeededFromIndex), ix), "count"},
		metric{"hub.label_pruned_per_query", perCall(int64(hl.st.LabelPruned), hl), "count"},
		metric{"hub.label_fallback_rate", ratio(float64(hl.st.LabelFallbacks), float64(hl.st.LabelFallbacks+hl.st.LabelPruned)), "frac"},
		metric{"hub.label_scanned_per_query", perCall(hl.st.LabelScanned, hl), "count"},
		metric{"cluster.coord_self_ms_per_req", perReq("cluster"), "ms"},
		metric{"cluster.shard_self_ms_per_req", perReq("shard.server"), "ms"},
		metric{"live.patch_ms_p50", pct(o.patches, 50), "ms"},
		metric{"live.rebuild_ms_p50", pct(o.rebuilds, 50), "ms"},
		metric{"trace.record_cost_frac", ratio(float64(lt.cost), float64(lt.total)), "frac"},
		metric{"trace.req_p50_ms", o.latency(isQuery, 50) * speed(o.open.ruler), "ms"},
		metric{"trace.unattributed_frac", ratio(float64(lt.unattributed), float64(lt.total)), "frac"},
	)
}

// latencies lists the latencies (ms) of the outcomes keep selects.
func latencies(outs []outcome, keep func(outcome) bool) []float64 {
	var xs []float64
	for _, o := range outs {
		if keep(o) {
			xs = append(xs, ms(o.lat))
		}
	}
	return xs
}

func isQuery(o outcome) bool  { return !o.mutate }
func isMutate(o outcome) bool { return o.mutate }

// imbalance is the largest spread of calls across one group's replicas,
// (max-min)/mean, over the open phase.
func imbalance(before, after [][]int64) float64 {
	worst := 0.0
	for g := range after {
		var lo, hi, sum int64 = -1, 0, 0
		for r := range after[g] {
			d := after[g][r] - before[g][r]
			sum += d
			hi = max(hi, d)
			if lo < 0 || d < lo {
				lo = d
			}
		}
		worst = max(worst, ratio(float64(hi-lo)*float64(len(after[g])), float64(sum)))
	}
	return worst
}

func median[T any](xs []T, f func(T) time.Duration) time.Duration {
	ds := make([]time.Duration, len(xs))
	for i, x := range xs {
		ds[i] = f(x)
	}
	slices.Sort(ds)
	if len(ds) == 0 {
		return 0
	}
	return ds[len(ds)/2]
}

// pct is the nearest-rank percentile, 0 for no samples.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// ratio is a/b, 0 when b is 0 (a layer the workload does not have).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
