package obs

import (
	"context"
	"regexp"
	"sync"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	want := map[Stage]string{
		StageAdmission:    "admission",
		StageCacheLookup:  "cache.lookup",
		StageCacheFlight:  "cache.flight",
		StageScatter:      "scatter",
		StageEngineRefine: "engine.refine",
		StageLabelScan:    "label.scan",
		StageLiveSnapshot: "live.snapshot",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Stage(%d) = %q, want %q", s, s.String(), name)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Errorf("out-of-range stage = %q", Stage(200).String())
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("rid-1", "query")
	defer tr.Release()

	sp := tr.Begin(StageAdmission)
	time.Sleep(time.Millisecond)
	sp.SetAttr("queued", 1)
	tr.End(sp)

	sp2 := tr.BeginShard(StageScatter, 3)
	tr.End(sp2)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Stage != StageAdmission || spans[0].Shard != -1 {
		t.Errorf("span0 = %+v", spans[0])
	}
	if spans[0].Duration() < time.Millisecond {
		t.Errorf("span0 duration = %v", spans[0].Duration())
	}
	if v, ok := spans[0].Attr("queued"); !ok || v != 1 {
		t.Errorf("attr queued = %d, %v", v, ok)
	}
	if spans[1].Shard != 3 {
		t.Errorf("shard span = %+v", spans[1])
	}
	if v, ok := tr.Attr(StageAdmission, "queued"); !ok || v != 1 {
		t.Errorf("trace attr lookup = %d, %v", v, ok)
	}
	if _, ok := tr.Attr(StageEngineRefine, "queued"); ok {
		t.Error("attr found for absent stage")
	}
}

func TestTraceConcurrentShardSpans(t *testing.T) {
	tr := NewTrace("rid-c", "query")
	defer tr.Release()
	var wg sync.WaitGroup
	for shard := 0; shard < 8; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			sp := tr.BeginShard(StageScatter, shard)
			sp.SetAttr("entries", int64(shard))
			tr.End(sp)
		}(shard)
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("spans = %d", len(spans))
	}
	seen := map[int32]int64{}
	for i := range spans {
		v, _ := spans[i].Attr("entries")
		seen[spans[i].Shard] = v
	}
	for shard := int32(0); shard < 8; shard++ {
		if seen[shard] != int64(shard) {
			t.Errorf("shard %d attr = %d", shard, seen[shard])
		}
	}
}

func TestTraceOverflowDrops(t *testing.T) {
	tr := NewTrace("rid-o", "query")
	defer tr.Release()
	for i := 0; i < maxSpans+5; i++ {
		sp := tr.Begin(StageEngineRefine)
		tr.End(sp) // nil-safe past capacity
	}
	if got := len(tr.Spans()); got != maxSpans {
		t.Errorf("spans = %d, want %d", got, maxSpans)
	}
	if tr.Dropped() != 5 {
		t.Errorf("dropped = %d, want 5", tr.Dropped())
	}
}

func TestTraceReusedAfterRelease(t *testing.T) {
	tr := NewTrace("first", "query")
	tr.Begin(StageAdmission)
	tr.Release()
	tr2 := NewTrace("second", "batch")
	defer tr2.Release()
	if tr2.ID() != "second" || tr2.Route() != "batch" {
		t.Errorf("reset trace = %q/%q", tr2.ID(), tr2.Route())
	}
	if len(tr2.Spans()) != 0 || tr2.Dropped() != 0 {
		t.Error("pooled trace kept stale spans")
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("empty context yielded a trace")
	}
	if RequestIDFromContext(context.Background()) != "" {
		t.Error("empty context yielded a request ID")
	}
	tr := NewTrace("rid-ctx", "query")
	defer tr.Release()
	ctx := ContextWithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("trace did not round-trip")
	}
	if RequestIDFromContext(ctx) != "rid-ctx" {
		t.Errorf("request id = %q", RequestIDFromContext(ctx))
	}
}

func TestNewRequestID(t *testing.T) {
	hex32 := regexp.MustCompile(`^[0-9a-f]{32}$`)
	a, b := NewRequestID(), NewRequestID()
	if !hex32.MatchString(a) {
		t.Errorf("request id %q not 32 hex chars", a)
	}
	if a == b {
		t.Error("consecutive request IDs collided")
	}
}

// TestSpanZeroAlloc pins the tracing hot path: opening, annotating, and
// closing spans on a live trace allocates nothing. This is what lets
// the engine and cluster record spans inside the ≤2 allocs/query gate.
func TestSpanZeroAlloc(t *testing.T) {
	tr := NewTrace("rid-alloc", "query")
	defer tr.Release()
	ctx := ContextWithTrace(context.Background(), tr)
	allocs := testing.AllocsPerRun(200, func() {
		tr.Reset("rid-alloc", "query")
		got := FromContext(ctx)
		sp := got.Begin(StageEngineRefine)
		sp.SetAttr("refinements", 42)
		got.End(sp)
		sp2 := got.BeginShard(StageScatter, 1)
		got.End(sp2)
	})
	if allocs != 0 {
		t.Errorf("span lifecycle allocates %v/op, want 0", allocs)
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	sp := tr.Begin(StageAdmission)
	if sp != nil {
		t.Fatal("nil trace returned a span")
	}
	sp.SetAttr("x", 1)
	tr.End(sp)
	tr.Release()
	if tr.ID() != "" || tr.Route() != "" || len(tr.Spans()) != 0 || tr.Dropped() != 0 {
		t.Error("nil trace not inert")
	}
	if _, ok := tr.Attr(StageAdmission, "x"); ok {
		t.Error("nil trace had attrs")
	}
}
