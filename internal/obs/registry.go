// Package obs is the observability substrate: a dependency-free metrics
// registry with Prometheus text exposition, a canonical catalog of every
// instrument the serving stack emits (metrics.go), an allocation-free
// per-request trace (trace.go), and a slow-query flight recorder
// (recorder.go).
//
// Instrument NAMES live only in this package. Other packages receive
// handles (via Metrics) and call Inc/Add/Observe; CI rejects instrument
// construction anywhere else so /metrics and the docs can never drift
// apart. /metrics is the serving stack's one stats surface.
package obs

import (
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry collects instruments and renders them in the Prometheus text
// exposition format (version 0.0.4). A nil *Registry is valid: every
// constructor on it returns a working, unregistered instrument, which is
// how components run standalone in tests without a metrics endpoint.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels []string

	mu     sync.Mutex
	series []*series
	gauge  func() float64 // gauge families have exactly one sampled series
}

type series struct {
	labelVals []string
	c         *Counter
	h         *Histogram
}

func (r *Registry) register(name, help, typ string, labels []string) *family {
	f := &family{name: name, help: help, typ: typ, labels: labels}
	if r == nil {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("obs: duplicate metric registration: " + name)
	}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Counter is a monotonically increasing int64. Nil receivers no-op so
// unwired components never have to branch.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// NewCounter registers a scalar counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	c := &Counter{}
	f.series = append(f.series, &series{c: c})
	return c
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	fam    *family
	mu     sync.Mutex
	byKey  map[string]*Counter
	labels []string
}

// NewCounterVec registers a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{
		fam:    r.register(name, help, "counter", labels),
		byKey:  make(map[string]*Counter),
		labels: labels,
	}
}

// With returns the counter for the given label values, creating it on
// first use. Handles are stable: fetch once, reuse forever.
func (v *CounterVec) With(vals ...string) *Counter {
	if len(vals) != len(v.labels) {
		panic("obs: label cardinality mismatch for " + v.fam.name)
	}
	key := strings.Join(vals, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.byKey[key]; ok {
		return c
	}
	c := &Counter{}
	v.byKey[key] = c
	v.fam.mu.Lock()
	v.fam.series = append(v.fam.series, &series{labelVals: append([]string(nil), vals...), c: c})
	v.fam.mu.Unlock()
	return c
}

// DefBuckets are the default latency buckets, in seconds: 100µs to 10s.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with cumulative exposition.
// Observe is lock-free. Nil receivers no-op. The count is the sum of the
// buckets, never a separate atomic: a scrape racing Observe then still
// prints a _count equal to its +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	sum    atomic.Uint64  // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &Histogram{
		bounds: buckets,
		counts: make([]atomic.Int64, len(buckets)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// NewHistogram registers a scalar histogram. Nil buckets selects
// DefBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, "histogram", nil)
	h := newHistogram(buckets)
	f.series = append(f.series, &series{h: h})
	return h
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct {
	fam     *family
	mu      sync.Mutex
	byKey   map[string]*Histogram
	labels  []string
	buckets []float64
}

// NewHistogramVec registers a labelled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{
		fam:     r.register(name, help, "histogram", labels),
		byKey:   make(map[string]*Histogram),
		labels:  labels,
		buckets: buckets,
	}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(vals ...string) *Histogram {
	if len(vals) != len(v.labels) {
		panic("obs: label cardinality mismatch for " + v.fam.name)
	}
	key := strings.Join(vals, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.byKey[key]; ok {
		return h
	}
	h := newHistogram(v.buckets)
	v.byKey[key] = h
	v.fam.mu.Lock()
	v.fam.series = append(v.fam.series, &series{labelVals: append([]string(nil), vals...), h: h})
	v.fam.mu.Unlock()
	return h
}

// NewGauge registers a gauge sampled from fn at scrape time. Gauges are
// pull-only: components expose a closure over state they already track
// instead of maintaining a second copy.
func (r *Registry) NewGauge(name, help string, fn func() float64) {
	f := r.register(name, help, "gauge", nil)
	f.gauge = fn
}

// WritePrometheus renders every registered family in the text exposition
// format. Families appear in registration order; series within a family
// are sorted by label values, so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.write(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(b *strings.Builder) {
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteString("\n# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.typ)
	b.WriteByte('\n')

	if f.gauge != nil {
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(formatFloat(f.gauge()))
		b.WriteByte('\n')
		return
	}

	f.mu.Lock()
	ss := make([]*series, len(f.series))
	copy(ss, f.series)
	f.mu.Unlock()
	sort.Slice(ss, func(i, j int) bool {
		a, c := ss[i].labelVals, ss[j].labelVals
		for k := range a {
			if a[k] != c[k] {
				return a[k] < c[k]
			}
		}
		return false
	})

	for _, s := range ss {
		switch {
		case s.c != nil:
			writeName(b, f.name, f.labels, s.labelVals, "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(s.c.Value(), 10))
			b.WriteByte('\n')
		case s.h != nil:
			s.h.write(b, f.name, f.labels, s.labelVals)
		}
	}
}

func (h *Histogram) write(b *strings.Builder, name string, labels, vals []string) {
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeName(b, name+"_bucket", labels, vals, formatFloat(bound))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(cum, 10))
		b.WriteByte('\n')
	}
	cum += h.counts[len(h.bounds)].Load()
	writeName(b, name+"_bucket", labels, vals, "+Inf")
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')
	writeName(b, name+"_sum", labels, vals, "")
	b.WriteByte(' ')
	b.WriteString(formatFloat(h.Sum()))
	b.WriteByte('\n')
	writeName(b, name+"_count", labels, vals, "")
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')
}

// writeName emits name{label="val",...} with an optional trailing le
// bucket label.
func writeName(b *strings.Builder, name string, labels, vals []string, le string) {
	b.WriteString(name)
	if len(labels) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
