package server

import (
	"sync/atomic"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/obs"
)

// Route classes label every serving-level metric series. The set is
// closed (Prometheus label cardinality) and maps one-to-one onto the
// mutating endpoints plus a catch-all.
const (
	routeQuery  = "query"
	routeBatch  = "batch"
	routeMutate = "mutate"
	routeOther  = "other"
)

var routeClasses = [...]string{routeQuery, routeBatch, routeMutate, routeOther}

// statusClassNames maps status/100 to its label; [0] collects
// non-standard codes (499).
var statusClassNames = [6]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// metrics records serving telemetry into the obs catalog, the one
// storage /metrics renders. Every handle is resolved once, so the
// request path takes no lock of its own.
type metrics struct {
	om *obs.Metrics

	// Per-route handles. Pre-materializing them also makes every route's
	// series visible at 0 on the first scrape.
	requests map[string]*obs.Counter
	latency  map[string]*obs.Histogram
	// responses caches each route's status-class series, made on first
	// use so that only classes that occurred are exposed.
	responses map[string]*[len(statusClassNames)]atomic.Pointer[obs.Counter]
}

func newMetrics(om *obs.Metrics) *metrics {
	m := &metrics{
		om:        om,
		requests:  make(map[string]*obs.Counter, len(routeClasses)),
		latency:   make(map[string]*obs.Histogram, len(routeClasses)),
		responses: make(map[string]*[len(statusClassNames)]atomic.Pointer[obs.Counter], len(routeClasses)),
	}
	for _, route := range routeClasses {
		m.requests[route] = om.Requests.With(route)
		m.latency[route] = om.RequestSeconds.With(route)
		m.responses[route] = new([len(statusClassNames)]atomic.Pointer[obs.Counter])
	}
	return m
}

func statusClass(status int) int {
	class := status / 100
	if class < 1 || class >= len(statusClassNames) {
		class = 0
	}
	return class
}

// observe records one finished request. st is nil for requests that never
// reached the backend (rejections, shed load) and for mutations (which
// carry no engine stats); okQueries is how many individual queries the
// request answered successfully (len(results) for a batch). tr may be
// nil; when present its closed spans feed the per-stage histograms.
func (m *metrics) observe(route string, status int, elapsed time.Duration, st *core.Stats, okQueries int, tr *obs.Trace) {
	m.requests[route].Inc()
	class := statusClass(status)
	slot := &m.responses[route][class]
	c := slot.Load()
	if c == nil {
		// With returns one handle per label set, so racing first uses
		// store the same counter.
		c = m.om.Responses.With(route, statusClassNames[class])
		slot.Store(c)
	}
	c.Inc()
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
}

// shed records an overload rejection (429).
func (m *metrics) shed() { m.om.Shed.Inc() }
