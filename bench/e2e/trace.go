package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rkranks/internal/cache"
	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/live"
	"rkranks/internal/obs"
	"rkranks/internal/server"
)

// tracedPrefix marks the request IDs whose spans the tracer keeps: the
// driver stamps every open-phase request of a traced run with it. Other
// requests carry no ID, or a hex one their server made up.
const tracedPrefix = "t"

// span is one bench-owned timer around a layer boundary. at names the
// server instance for spans inside a shard replica ("" elsewhere). parent
// names the enclosing layer; analysis resolves it to the span of that
// name, in the same request and instance (or the front), whose interval
// holds this one.
type span struct {
	rid        string
	name, at   string
	parent     string
	start, end time.Duration // offsets from tracer.epoch
}

// tracer keeps spans in memory for the requests marked traced and writes
// them out when the run ends. cost is the time spent storing them, one
// part of what tracing adds; the whole of it shows only against an
// untraced run (README.md, tracing overhead).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	cost  time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(rid, name, at, parent string, start, end time.Time) {
	if !strings.HasPrefix(rid, tracedPrefix) {
		return
	}
	begin := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{rid, name, at, parent, start.Sub(t.epoch), end.Sub(t.epoch)})
	t.cost += time.Since(begin)
	t.mu.Unlock()
}

// handler times a server's whole HTTP handler. Inbound X-Request-Id is
// how a shard server's span joins the coordinator's request.
func (t *tracer) handler(h http.Handler, name, at, parent string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(r.Header.Get("X-Request-Id"), name, at, parent, start, time.Now())
	})
}

// timedTarget times every call into a query backend. Placed directly
// above an engine pool or live store it also tallies the engine's work
// counters (eng != nil).
//
// It forwards Unwrap and Generation because the layers around it find
// capabilities by type assertion: cache.NewBackend keys its entries on
// its target's Generation, and the server walks Unwrap chains for every
// optional probe. Dropping either would change what the stack serves.
type timedTarget struct {
	inner            cache.Target
	name, at, parent string
	tr               *tracer
	eng              *engineStats
}

func (t *timedTarget) QueryContext(ctx context.Context, a core.Algorithm, q int32, k int) (*core.Result, error) {
	start := time.Now()
	res, err := t.inner.QueryContext(ctx, a, q, k)
	end := time.Now()
	t.tr.record(obs.RequestIDFromContext(ctx), t.name, t.at, t.parent, start, end)
	if t.eng != nil && err == nil {
		t.eng.add(a, end.Sub(start), res.Stats)
	}
	return res, err
}

func (t *timedTarget) QueryManyContext(ctx context.Context, a core.Algorithm, queries []int32, k int) ([]*core.Result, error) {
	start := time.Now()
	res, err := t.inner.QueryManyContext(ctx, a, queries, k)
	t.tr.record(obs.RequestIDFromContext(ctx), t.name, t.at, t.parent, start, time.Now())
	return res, err
}

func (t *timedTarget) Size() int     { return t.inner.Size() }
func (t *timedTarget) Indexed() bool { return t.inner.Indexed() }
func (t *timedTarget) Unwrap() any   { return t.inner }

// Generation reports the first generation found down the Unwrap chain,
// the same one the server's probe would find without this decorator.
func (t *timedTarget) Generation() uint64 {
	for b := any(t.inner); b != nil; {
		if g, ok := b.(interface{ Generation() uint64 }); ok {
			return g.Generation()
		}
		u, ok := b.(interface{ Unwrap() any })
		if !ok {
			return 0
		}
		b = u.Unwrap()
	}
	return 0
}

// timedMutable is a timedTarget over a backend that accepts mutation
// batches; it times each batch and splits patch from rebuild.
type timedMutable struct {
	*timedTarget
	m    server.Mutator
	muts *mutateStats
}

func (t *timedMutable) Mutate(ctx context.Context, ms []graph.Mutation) (live.MutateInfo, error) {
	start := time.Now()
	info, err := t.m.Mutate(ctx, ms)
	end := time.Now()
	t.tr.record(obs.RequestIDFromContext(ctx), "live.mutate", t.at, "server", start, end)
	if err == nil && t.muts != nil {
		t.muts.add(info.Rebuilt, end.Sub(start))
	}
	return info, err
}

// wrap returns inner behind a timedTarget, or behind a timedMutable when
// inner accepts mutations, so the server still finds Mutate.
func (t *tracer) wrap(inner cache.Target, name, at, parent string, eng *engineStats, muts *mutateStats) cache.Target {
	tt := &timedTarget{inner: inner, name: name, at: at, parent: parent, tr: t, eng: eng}
	if m, ok := inner.(server.Mutator); ok {
		return &timedMutable{timedTarget: tt, m: m, muts: muts}
	}
	return tt
}

// algoWork is one algorithm's engine calls, busy time and work counters.
type algoWork struct {
	calls int
	busy  time.Duration
	st    core.Stats
}

// engineStats tallies what the engine layer did, per algorithm.
type engineStats struct {
	mu     sync.Mutex
	byAlgo map[core.Algorithm]*algoWork
}

func newEngineStats() *engineStats {
	return &engineStats{byAlgo: map[core.Algorithm]*algoWork{}}
}

func (e *engineStats) add(a core.Algorithm, busy time.Duration, st core.Stats) {
	e.mu.Lock()
	w := e.byAlgo[a]
	if w == nil {
		w = &algoWork{}
		e.byAlgo[a] = w
	}
	w.calls++
	w.busy += busy
	w.st.Add(st)
	e.mu.Unlock()
}

// take returns the tallies since the last take and starts afresh.
func (e *engineStats) take() map[core.Algorithm]algoWork {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[core.Algorithm]algoWork, len(e.byAlgo))
	for a, w := range e.byAlgo {
		out[a] = *w
	}
	e.byAlgo = map[core.Algorithm]*algoWork{}
	return out
}

// mutateStats keeps the durations of applied mutation batches.
type mutateStats struct {
	mu               sync.Mutex
	patches, rebuild []float64 // ms
}

func (m *mutateStats) add(rebuilt bool, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	m.mu.Lock()
	if rebuilt {
		m.rebuild = append(m.rebuild, ms)
	} else {
		m.patches = append(m.patches, ms)
	}
	m.mu.Unlock()
}

// take returns the durations since the last take and starts afresh.
func (m *mutateStats) take() (patches, rebuilds []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	patches, rebuilds = m.patches, m.rebuild
	m.patches, m.rebuild = nil, nil
	return patches, rebuilds
}

// layerTimes is the per-layer attribution of the traced query requests.
type layerTimes struct {
	requests     int                      // traced query requests with a client span
	self         map[string]time.Duration // summed self time per span name
	total        time.Duration            // summed client span durations
	unattributed time.Duration
	cost         time.Duration // spent recording spans, all traced requests
}

// analyze attributes each traced query request's time to its layers. A
// span's self time is its duration minus the part of it that its child
// spans cover. Time counts as unattributed when a span has no enclosing
// parent, when it sticks out of its parent, or when a request lacks one
// of the layers every query crosses (expect).
func (t *tracer) analyze(expect []string) layerTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	lt := layerTimes{self: map[string]time.Duration{}, cost: t.cost}
	t.mu.Unlock()
	byRID := map[string][]int{}
	for i, s := range spans {
		byRID[s.rid] = append(byRID[s.rid], i)
	}
	for _, idx := range byRID {
		root := -1
		for _, i := range idx {
			if spans[i].name == "client" {
				root = i
			}
		}
		if root < 0 {
			continue // mutation batches and untimed requests
		}
		lt.requests++
		dur := spans[root].end - spans[root].start
		lt.total += dur
		children := map[int][]int{}
		names := map[string]bool{}
		for _, i := range idx {
			s := spans[i]
			names[s.name] = true
			if i == root {
				continue
			}
			p := parentOf(spans, idx, i)
			if p < 0 {
				lt.unattributed += s.end - s.start
				continue
			}
			lt.unattributed += outside(s, spans[p])
			children[p] = append(children[p], i)
		}
		for _, n := range expect {
			if !names[n] {
				lt.unattributed += dur
				break
			}
		}
		for _, i := range idx {
			s := spans[i]
			lt.self[s.name] += s.end - s.start - covered(s, spans, children[i])
		}
	}
	return lt
}

// parentOf finds the span named spans[i].parent, in the same request and
// instance (or the front), that holds spans[i]'s start; the tightest one
// when a layer was entered more than once (two scatter rounds).
func parentOf(spans []span, idx []int, i int) int {
	s := spans[i]
	best := -1
	for _, j := range idx {
		p := spans[j]
		if j == i || p.name != s.parent || (p.at != s.at && p.at != "") || s.start < p.start || s.start > p.end {
			continue
		}
		if best < 0 || p.end-p.start < spans[best].end-spans[best].start {
			best = j
		}
	}
	return best
}

// outside is the part of s that lies outside p.
func outside(s, p span) time.Duration {
	var d time.Duration
	if s.start < p.start {
		d += min(s.end, p.start) - s.start
	}
	if s.end > p.end {
		d += s.end - max(s.start, p.end)
	}
	return d
}

// covered is the length of the union of the children's intervals,
// clipped to s.
func covered(s span, spans []span, children []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string      `json:"workload"`
	Host     host        `json:"host"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	RequestID string  `json:"rid"`
	Name      string  `json:"name"`
	At        string  `json:"at,omitempty"`
	Parent    string  `json:"parent,omitempty"`
	StartUS   float64 `json:"start_us"`
	EndUS     float64 `json:"end_us"`
}

// write stores the spans, ordered by request then start, as
// <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, h host) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].rid != spans[j].rid {
			return spans[i].rid < spans[j].rid
		}
		return spans[i].start < spans[j].start
	})
	tf := traceFile{Workload: workload, Host: h, Spans: make([]traceSpan, len(spans))}
	for i, s := range spans {
		tf.Spans[i] = traceSpan{s.rid, s.name, s.at, s.parent, us(s.start), us(s.end)}
	}
	buf, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, buf, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
