package server

import (
	"sync"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/core"
	"rkranks/internal/obs"
	"rkranks/internal/stats"
)

// Route classes label every serving-level metric series. The set is
// closed (Prometheus label cardinality) and maps one-to-one onto the
// mutating endpoints plus a catch-all; /statsz keys its per-route
// latency windows by the same names.
const (
	routeQuery  = "query"
	routeBatch  = "batch"
	routeMutate = "mutate"
	routeOther  = "other"
)

var routeClasses = [...]string{routeQuery, routeBatch, routeMutate, routeOther}

// latWindow is how many recent request latencies back the /statsz
// percentiles: large enough for stable p99 under load, small enough that
// the window tracks current behavior rather than all of history.
const latWindow = 2048

// qpsBuckets is the per-second request-count ring backing the QPS rates.
const qpsBuckets = 64

// latRing is one route class's recent-latency window. Before these were
// split per route, a burst of slow mutations (a CSR rebuild) or batches
// would drag the "query" percentiles an operator was actually watching.
type latRing struct {
	buf [latWindow]float64 // seconds
	n   int                // valid prefix length
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
		P90:    1000 * stats.Percentile(window, 90),
		P99:    1000 * stats.Percentile(window, 99),
		Mean:   1000 * stats.Mean(window),
		Window: r.n,
	}
}

// metrics aggregates serving telemetry. Every monotone counter is an obs
// instrument — /statsz reads them back with Value(), so the /statsz and
// /metrics numbers are one storage and can never disagree. The mutex
// guards only what Prometheus does not carry: the percentile rings, the
// QPS second-ring, and the engine-stat aggregation.
type metrics struct {
	om *obs.Metrics

	// Per-route handles, resolved once so the request path never touches
	// the vec's lazy-series map. Pre-materializing them also makes every
	// route's series visible at 0 on the first scrape.
	requests map[string]*obs.Counter
	latency  map[string]*obs.Histogram

	mu        sync.Mutex
	responses map[string]map[string]*obs.Counter // route -> status class

	lat map[string]*latRing // per route class, successful requests only

	secCount [qpsBuckets]int64 // requests landing in second secStamp[i]
	secStamp [qpsBuckets]int64

	query core.Stats // engine counters summed over successful requests
}

// statusClassNames maps status/100 to its label; [0] collects
// non-standard codes (499).
var statusClassNames = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

func newMetrics(om *obs.Metrics) *metrics {
	if om == nil {
		om = obs.NewMetrics(nil)
	}
	m := &metrics{
		om:        om,
		requests:  make(map[string]*obs.Counter, len(routeClasses)),
		latency:   make(map[string]*obs.Histogram, len(routeClasses)),
		responses: make(map[string]map[string]*obs.Counter, len(routeClasses)),
		lat:       make(map[string]*latRing, len(routeClasses)),
	}
	for _, route := range routeClasses {
		m.requests[route] = om.Requests.With(route)
		m.latency[route] = om.RequestSeconds.With(route)
		m.responses[route] = make(map[string]*obs.Counter, len(statusClassNames))
		m.lat[route] = &latRing{}
	}
	return m
}

func statusClass(status int) string {
	class := status / 100
	if class < 1 || class >= len(statusClassNames) {
		class = 0
	}
	return statusClassNames[class]
}

// observe records one finished request. st is nil for requests that never
// reached the backend (rejections, shed load) and for mutations (which
// carry no engine stats); okQueries is how many individual queries the
// request answered successfully (len(results) for a batch). tr may be
// nil; when present its closed spans feed the per-stage histograms.
func (m *metrics) observe(route string, status int, elapsed time.Duration, st *core.Stats, okQueries int, tr *obs.Trace) {
	m.requests[route].Inc()
	if okQueries > 0 {
		m.om.QueriesOK.Add(int64(okQueries))
	}
	if status == 200 {
		// Only successful requests enter the latency distributions: mixing
		// in microsecond-fast sheds and rejects would drag the reported
		// percentiles toward zero exactly when the server is overloaded —
		// the moment an operator needs them most.
		m.latency[route].Observe(elapsed.Seconds())
	}
	if st != nil {
		m.om.EngineRefinements.Add(int64(st.Refinements))
		m.om.EnginePruned.Add(int64(st.PrunedByBound))
		m.om.EngineIndexHits.Add(int64(st.IndexHits))
		m.om.EngineSharedTraversals.Add(int64(st.SharedTraversals))
		m.om.LabelPruned.Add(int64(st.LabelPruned))
		m.om.LabelFallbacks.Add(int64(st.LabelFallbacks))
	}
	if tr != nil {
		// Parent spans only: a scatter's per-shard child spans would
		// otherwise mix single-RPC durations into the whole-scatter series.
		for _, sp := range tr.Spans() {
			if sp.Shard < 0 {
				m.om.StageSeconds[sp.Stage].Observe(sp.Duration().Seconds())
			}
		}
	}

	now := time.Now().Unix()
	class := statusClass(status)
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.responses[route][class]
	if c == nil {
		c = m.om.Responses.With(route, class)
		m.responses[route][class] = c
	}
	c.Inc()
	i := now % qpsBuckets
	if m.secStamp[i] != now {
		m.secStamp[i] = now
		m.secCount[i] = 0
	}
	m.secCount[i]++
	if status == 200 {
		m.lat[route].observe(elapsed)
	}
	if st != nil {
		m.query.Add(*st)
	}
}

// shed records an overload rejection (429).
func (m *metrics) shed() { m.om.Shed.Inc() }

// Snapshot is the /statsz document, defined in internal/api alongside the
// rest of the wire protocol.
type Snapshot = api.Snapshot

// LatencySnapshot reports percentiles over the recent-latency window, in
// milliseconds.
type LatencySnapshot = api.LatencySnapshot

func (m *metrics) snapshot() Snapshot {
	now := time.Now().Unix()
	m.mu.Lock()
	defer m.mu.Unlock()

	snap := Snapshot{
		SheddedTotal:  m.om.Shed.Value(),
		StatusClasses: map[string]int64{},
		QueryStats:    m.query,
		QueriesOK:     m.om.QueriesOK.Value(),
	}
	for _, route := range routeClasses {
		snap.RequestsTotal += m.requests[route].Value()
		for class, c := range m.responses[route] {
			if v := c.Value(); v > 0 {
				snap.StatusClasses[class] += v
			}
		}
	}
	// QPS over trailing windows; the current (partial) second is excluded
	// so a snapshot early in a second does not read as a dip.
	var c10, c60 int64
	for i := int64(0); i < qpsBuckets; i++ {
		age := now - m.secStamp[i]
		if age < 1 || m.secStamp[i] == 0 {
			continue
		}
		if age <= 10 {
			c10 += m.secCount[i]
		}
		if age <= 60 {
			c60 += m.secCount[i]
		}
	}
	snap.QPS10s = float64(c10) / 10
	snap.QPS60s = float64(c60) / 60

	// The historic top-level window is the query route's, so dashboards
	// reading latency_ms keep seeing what they always meant to see.
	snap.Latency = m.lat[routeQuery].snapshot()
	for _, route := range routeClasses {
		if ls := m.lat[route].snapshot(); ls.Window > 0 {
			if snap.LatencyByRoute == nil {
				snap.LatencyByRoute = map[string]LatencySnapshot{}
			}
			snap.LatencyByRoute[route] = ls
		}
	}

	if denom := m.query.IndexHits + m.query.Refinements; denom > 0 {
		snap.IndexHitRate = float64(m.query.IndexHits) / float64(denom)
	}
	if denom := m.query.LabelFallbacks + m.query.LabelPruned; denom > 0 {
		snap.LabelFallbackRate = float64(m.query.LabelFallbacks) / float64(denom)
	}
	snap.BatchSharedTraversals = int64(m.query.SharedTraversals)
	if m.query.Refinements > 0 {
		snap.TraversalReuseRatio = float64(m.query.SharedTraversals) / float64(m.query.Refinements)
	}
	return snap
}
