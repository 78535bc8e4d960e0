package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"rkranks/internal/obs"
	"rkranks/internal/stats"
)

// latWindow sizes the recent-latency rings (coordinator, max-shard, and
// per-shard): big enough for stable p99, small enough to track current
// behavior.
const latWindow = 1024

// latRing is a fixed-size latency window with percentile snapshots.
type latRing struct {
	buf [latWindow]float64 // seconds
	n   int
	idx int
}

func (r *latRing) observe(d time.Duration) {
	r.buf[r.idx] = d.Seconds()
	r.idx = (r.idx + 1) % latWindow
	if r.n < latWindow {
		r.n++
	}
}

func (r *latRing) snapshot() LatencySnapshot {
	if r.n == 0 {
		return LatencySnapshot{}
	}
	window := make([]float64, r.n)
	copy(window, r.buf[:r.n])
	return LatencySnapshot{
		P50:    1000 * stats.Percentile(window, 50),
		P99:    1000 * stats.Percentile(window, 99),
		Mean:   1000 * stats.Mean(window),
		Window: r.n,
	}
}

// LatencySnapshot reports percentiles over a recent-latency window, in
// milliseconds. Field names are part of the /statsz wire format.
type LatencySnapshot struct {
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
	Mean   float64 `json:"mean"`
	Window int     `json:"window"`
}

// metrics aggregates coordinator telemetry. The monotone counters are
// obs instruments — /statsz reads them back with Value(), so the cluster
// section and /metrics are one storage. The mutex guards the percentile
// rings (which /metrics does not carry; Prometheus derives distribution
// from the stage histograms instead); the per-shard in-flight gauges are
// atomics so the scatter hot path touches the lock once per query, not
// once per shard RPC.
type metrics struct {
	mu sync.Mutex

	queries     *obs.Counter
	partials    *obs.Counter
	failures    *obs.Counter // shard-level failures observed
	transferred *obs.Counter // result entries moved coordinator-ward
	skewRetries *obs.Counter // re-scatters forced by generation skew

	batches      *obs.Counter // batch scatters served
	batchRPCs    *obs.Counter // shard RPCs spent on batch scatters
	batchQueries *obs.Counter // queries carried by batch scatters

	coord    latRing // whole scatter-gather-merge per query
	maxShard latRing // slowest shard RPC per query
	batch    latRing // whole batch scatter-merge per batch

	shards []*shardMetrics
}

type shardMetrics struct {
	inFlight atomic.Int64

	mu      sync.Mutex
	queries int64
	errors  int64
	lat     latRing
}

func newMetrics(shards int, om *obs.Metrics) *metrics {
	if om == nil {
		om = obs.NewMetrics(nil)
	}
	m := &metrics{
		queries:      om.ClusterQueries,
		partials:     om.ClusterPartials,
		failures:     om.ClusterShardFailures,
		transferred:  om.ClusterTransferred,
		skewRetries:  om.SkewRetries,
		batches:      om.ClusterBatches,
		batchRPCs:    om.ClusterBatchRPCs,
		batchQueries: om.ClusterBatchQueries,
		shards:       make([]*shardMetrics, shards),
	}
	for i := range m.shards {
		m.shards[i] = &shardMetrics{}
	}
	return m
}

// observeShard records one shard RPC.
func (m *metrics) observeShard(shard int, elapsed time.Duration, err error) {
	s := m.shards[shard]
	s.mu.Lock()
	s.queries++
	if err != nil {
		s.errors++
	} else {
		s.lat.observe(elapsed)
	}
	s.mu.Unlock()
	if err != nil {
		m.failures.Inc()
	}
}

// observeQuery records one coordinator query's aggregate outcome.
func (m *metrics) observeQuery(elapsed, maxShard time.Duration, transferred int, partial bool) {
	m.queries.Inc()
	if partial {
		m.partials.Inc()
	}
	m.transferred.Add(int64(transferred))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.coord.observe(elapsed)
	if maxShard > 0 {
		m.maxShard.observe(maxShard)
	}
}

// observeBatch records one batch scatter's aggregate outcome. Transfer
// counts entries over every (shard, query) pair, as the per-query path
// does, so the transfer column stays comparable across both scatter
// modes.
func (m *metrics) observeBatch(elapsed, maxShard time.Duration, rpcs, queries, transferred int) {
	m.batches.Inc()
	m.batchRPCs.Add(int64(rpcs))
	m.batchQueries.Add(int64(queries))
	m.transferred.Add(int64(transferred))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batch.observe(elapsed)
	if maxShard > 0 {
		m.maxShard.observe(maxShard)
	}
}

// Snapshot is the cluster section of /statsz. Field names are a frozen
// wire format: add, never rename.
type Snapshot struct {
	Queries        int64 `json:"queries"`
	PartialResults int64 `json:"partial_results"`
	ShardFailures  int64 `json:"shard_failures"`

	// EntriesTransferred counts result entries moved from shards to the
	// coordinator. The merged k keeps it below shards x k x queries
	// (what a naive full-k gather moves).
	EntriesTransferred int64 `json:"entries_transferred"`
	// Escalations and ShortCircuited always read 0: they counted the
	// second scatter round and the shards that skipped it, and every
	// query now takes one round. They stay in the frozen wire format
	// while the end-to-end benchmark (bench/e2e) still reads them.
	Escalations    int64 `json:"escalations"`
	ShortCircuited int64 `json:"short_circuited"`
	// SkewRetries counts scatters re-run because shard answers spanned
	// two graph generations (a mutation landed mid-scatter).
	SkewRetries int64 `json:"skew_retries"`

	// Batches counts /v1/batch scatters; BatchRPCs the shard round trips
	// they spent (one per available shard per batch); BatchQueries the
	// queries they carried. BatchRPCs over BatchQueries is the
	// RPCs-per-query figure batch scatter exists to shrink (the per-query
	// path spends one RPC per shard per QUERY).
	Batches      int64 `json:"batches"`
	BatchRPCs    int64 `json:"batch_rpcs"`
	BatchQueries int64 `json:"batch_queries"`

	// Coordinator is the full scatter-gather-merge latency;
	// MaxShard is the slowest shard RPC within each query. The gap
	// between them is the merge + fan-out overhead the coordinator adds
	// over its slowest shard. Batch is the whole-batch latency of batch
	// scatters.
	Coordinator LatencySnapshot `json:"coordinator_ms"`
	MaxShard    LatencySnapshot `json:"max_shard_ms"`
	Batch       LatencySnapshot `json:"batch_ms"`

	Shards []ShardSnapshot `json:"shards"`
}

// ShardSnapshot is one shard's health and load view.
type ShardSnapshot struct {
	ID        int             `json:"id"`
	Backend   string          `json:"backend"`
	Available bool            `json:"available"`
	Size      int             `json:"size"`
	InFlight  int64           `json:"in_flight"`
	Queries   int64           `json:"queries"`
	Errors    int64           `json:"errors"`
	Latency   LatencySnapshot `json:"latency_ms"`
}

func (m *metrics) snapshot() Snapshot {
	m.mu.Lock()
	snap := Snapshot{
		Queries:            m.queries.Value(),
		PartialResults:     m.partials.Value(),
		ShardFailures:      m.failures.Value(),
		EntriesTransferred: m.transferred.Value(),
		SkewRetries:        m.skewRetries.Value(),
		Batches:            m.batches.Value(),
		BatchRPCs:          m.batchRPCs.Value(),
		BatchQueries:       m.batchQueries.Value(),
		Coordinator:        m.coord.snapshot(),
		MaxShard:           m.maxShard.snapshot(),
		Batch:              m.batch.snapshot(),
		Shards:             make([]ShardSnapshot, len(m.shards)),
	}
	m.mu.Unlock()
	for i, s := range m.shards {
		s.mu.Lock()
		snap.Shards[i] = ShardSnapshot{
			ID:       i,
			InFlight: s.inFlight.Load(),
			Queries:  s.queries,
			Errors:   s.errors,
			Latency:  s.lat.snapshot(),
		}
		s.mu.Unlock()
	}
	return snap
}
