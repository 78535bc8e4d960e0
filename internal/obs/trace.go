package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"time"
)

// Stage identifies a typed span within a request trace. The set is
// closed: every stage maps to one rkranks_stage_duration_seconds series,
// and the flight recorder renders the same names, so the two surfaces
// agree by construction.
type Stage uint8

const (
	// StageAdmission is the wait for an in-flight slot (admission control).
	StageAdmission Stage = iota
	// StageCacheLookup is the response-cache probe (hit, miss, or join).
	StageCacheLookup
	// StageCacheFlight is the wait for a coalesced singleflight to finish.
	StageCacheFlight
	// StageScatter is the coordinator's scatter-gather: one call per
	// shard, with a child span per shard.
	StageScatter
	// StageEngineRefine is engine dispatch for non-label algorithms.
	StageEngineRefine
	// StageLabelScan is engine dispatch for HubLabel queries (label scan
	// interleaved with fallback refinement).
	StageLabelScan
	// StageLiveSnapshot is the wait for a consistent live-store snapshot.
	StageLiveSnapshot

	numStages
)

// NumStages is the number of defined span stages.
const NumStages = int(numStages)

var stageNames = [NumStages]string{
	"admission",
	"cache.lookup",
	"cache.flight",
	"scatter",
	"engine.refine",
	"label.scan",
	"live.snapshot",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

const (
	maxSpans = 32
	maxAttrs = 6
)

// Attr is a typed span attribute. Values are int64 only — no interface
// boxing, no allocation.
type Attr struct {
	Key   string
	Value int64
}

// Span is one timed stage inside a trace. Spans live in a fixed array
// inside the Trace; a *Span stays valid until the trace is released.
type Span struct {
	Stage Stage
	Shard int32 // owning shard for per-shard child spans, -1 otherwise
	Start time.Duration
	End   time.Duration
	nattr uint8
	attrs [maxAttrs]Attr
}

// SetAttr attaches a typed attribute. Beyond maxAttrs the attribute is
// dropped silently; nil receivers no-op.
func (sp *Span) SetAttr(key string, v int64) {
	if sp == nil {
		return
	}
	if int(sp.nattr) < len(sp.attrs) {
		sp.attrs[sp.nattr] = Attr{Key: key, Value: v}
		sp.nattr++
	}
}

// Attrs returns the attached attributes.
func (sp *Span) Attrs() []Attr {
	if sp == nil {
		return nil
	}
	return sp.attrs[:sp.nattr]
}

// Attr returns the named attribute.
func (sp *Span) Attr(key string) (int64, bool) {
	if sp == nil {
		return 0, false
	}
	for _, a := range sp.attrs[:sp.nattr] {
		if a.Key == key {
			return a.Value, true
		}
	}
	return 0, false
}

// Duration is the span's elapsed time.
func (sp *Span) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	return sp.End - sp.Start
}

// Trace is one request's span collection. Traces are pooled and hold
// their spans inline, so steady-state tracing allocates nothing. Begin
// is safe to call from concurrent goroutines (shard fan-out); each
// returned *Span must then be written only by its claiming goroutine.
type Trace struct {
	id    string
	route string
	start time.Time

	mu      sync.Mutex
	n       int
	dropped int
	spans   [maxSpans]Span
}

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// NewTrace returns a pooled trace stamped with the request ID and route
// class. Release it when the request (and any recorder copy) is done.
func NewTrace(id, route string) *Trace {
	t := tracePool.Get().(*Trace)
	t.Reset(id, route)
	return t
}

// Reset rearms the trace in place for a new request.
func (t *Trace) Reset(id, route string) {
	t.id = id
	t.route = route
	t.start = time.Now()
	t.n = 0
	t.dropped = 0
}

// Release returns the trace to the pool. The caller must drop every
// *Span and Spans() slice first.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	tracePool.Put(t)
}

// ID returns the request ID the trace was stamped with.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Route returns the route class ("query", "batch", "mutate", ...).
func (t *Trace) Route() string {
	if t == nil {
		return ""
	}
	return t.route
}

// StartTime returns the trace's zero offset.
func (t *Trace) StartTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Begin opens a span for stage. It returns nil (safe to use) when the
// trace is nil or full; spans beyond capacity are counted as dropped.
func (t *Trace) Begin(stage Stage) *Span {
	return t.BeginShard(stage, -1)
}

// BeginShard opens a per-shard child span.
func (t *Trace) BeginShard(stage Stage, shard int) *Span {
	if t == nil {
		return nil
	}
	off := time.Since(t.start)
	t.mu.Lock()
	if t.n >= len(t.spans) {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	sp := &t.spans[t.n]
	t.n++
	t.mu.Unlock()
	sp.Stage = stage
	sp.Shard = int32(shard)
	sp.Start = off
	sp.End = 0
	sp.nattr = 0
	return sp
}

// End closes a span. Nil trace or span no-ops.
func (t *Trace) End(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	sp.End = time.Since(t.start)
}

// Spans returns the recorded spans. Call only after every concurrent
// Begin caller has synchronized with this goroutine (request complete);
// the slice aliases trace storage and dies with Release.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	n := t.n
	t.mu.Unlock()
	return t.spans[:n]
}

// Dropped reports spans discarded because the trace was full.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Attr returns the named attribute from the most recent span of the
// given stage.
func (t *Trace) Attr(stage Stage, key string) (int64, bool) {
	if t == nil {
		return 0, false
	}
	spans := t.Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Stage == stage {
			if v, ok := spans[i].Attr(key); ok {
				return v, true
			}
		}
	}
	return 0, false
}

type traceKey struct{}

// ContextWithTrace attaches a trace to the context; every layer below
// (cache, cluster, engine, live store) picks it up via FromContext.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the context's trace, or nil. All Trace and Span
// methods accept the nil result, so callers never branch.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// RequestIDFromContext returns the request ID carried by the context's
// trace, or "". The API client injects it into the X-Request-Id header
// so rkcluster traces stitch across machines.
func RequestIDFromContext(ctx context.Context) string {
	return FromContext(ctx).ID()
}

// NewRequestID returns a fresh 128-bit hex request ID.
func NewRequestID() string {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], rand.Uint64())
	binary.LittleEndian.PutUint64(b[8:], rand.Uint64())
	return hex.EncodeToString(b[:])
}
