package obs

import (
	"flag"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildCatalog produces a deterministic registry exercising every
// instrument kind the catalog defines.
func buildCatalog() *Registry {
	reg := NewRegistry()
	m := NewMetrics(reg)

	// Materialize the route series the server creates at startup, in a
	// scrambled order to prove exposition sorts them.
	for _, route := range []string{"query", "batch", "mutate", "other"} {
		m.Requests.With(route)
		m.RequestSeconds.With(route)
	}
	m.Responses.With("query", "2xx").Add(3)
	m.Responses.With("query", "5xx").Inc()
	m.Responses.With("batch", "2xx").Inc()

	m.Requests.With("query").Add(4)
	m.Shed.Inc()
	m.QueriesOK.Add(3)
	m.RequestSeconds.With("query").Observe(0.003)
	m.StageSeconds[StageAdmission].Observe(0.0002)
	m.StageSeconds[StageEngineRefine].Observe(0.002)

	m.CacheHits.Add(2)
	m.CacheMisses.Inc()
	m.ClusterQueries.Inc()
	m.ClusterShardCalls.With("1").Add(2)
	m.ClusterShardCalls.With("0").Inc()
	m.SkewRetries.Inc()
	m.MutationBatches.Inc()
	m.MutationOps.Add(5)
	m.MutationApplySeconds.Observe(0.05)
	m.EngineRefinements.Add(120)
	m.LabelPruned.Add(80)
	m.LabelFallbacks.Add(7)
	m.SlowQueries.Inc()

	m.RegisterGauge("rkranks_in_flight_requests", func() float64 { return 2 })
	m.RegisterGauge("rkranks_generation", func() float64 { return 5 })
	m.RegisterGauge("rkranks_index_seq", func() float64 { return 1234 })
	m.RegisterGauge("rkranks_index_generation", func() float64 { return 3 })
	return reg
}

// TestPrometheusGolden pins the full exposition — every metric name,
// label set, help line, and bucket layout — to a golden file. A diff
// here means the wire catalog changed: update the golden AND the README
// metrics table.
func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := buildCatalog().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	const golden = "testdata/metrics.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition diverged from golden; run `go test ./internal/obs -run Golden -update` if intentional.\ngot:\n%s", got)
	}
}

// TestPrometheusFormatValid line-checks the exposition against the text
// format grammar: HELP/TYPE pairs, legal metric and label names, float
// values, cumulative non-decreasing buckets ending at +Inf.
func TestPrometheusFormatValid(t *testing.T) {
	var b strings.Builder
	if err := buildCatalog().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (\+Inf|-?[0-9.e+-]+)$`)
	comment := regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("suspiciously short exposition: %d lines", len(lines))
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			if !comment.MatchString(line) {
				t.Errorf("bad comment line: %q", line)
			}
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("bad sample line: %q", line)
		}
	}
	for _, want := range []string{
		"rkranks_stage_duration_seconds_bucket{stage=\"engine.refine\",le=\"+Inf\"}",
		"rkranks_request_duration_seconds_count{route=\"query\"}",
		"rkranks_generation_skew_retries_total 1",
		"# TYPE rkranks_cache_hits_total counter",
		"# TYPE rkranks_in_flight_requests gauge",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestHistogramBucketsCumulative checks the cumulative invariant and
// the +Inf terminal bucket equals _count.
func TestHistogramBucketsCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("x_seconds", "test", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.005, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`x_seconds_bucket{le="0.001"} 1`,
		`x_seconds_bucket{le="0.01"} 3`,
		`x_seconds_bucket{le="0.1"} 4`,
		`x_seconds_bucket{le="+Inf"} 5`,
		`x_seconds_count 5`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
}

// TestHistogramCountMatchesInfUnderObserve scrapes while goroutines
// observe: every scrape must print a _count equal to its +Inf bucket, as
// the text format requires.
func TestHistogramCountMatchesInfUnderObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("x_seconds", "test", []float64{0.001, 0.01})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, v := range []float64{0.005, 0.05} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(v)
				}
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)

	inf := regexp.MustCompile(`(?m)^x_seconds_bucket\{le="\+Inf"\} (\d+)$`)
	count := regexp.MustCompile(`(?m)^x_seconds_count (\d+)$`)
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		a, c := inf.FindStringSubmatch(b.String()), count.FindStringSubmatch(b.String())
		if a == nil || c == nil {
			t.Fatalf("scrape %d lacks the +Inf bucket or _count:\n%s", i, b.String())
		}
		if a[1] != c[1] {
			t.Fatalf("scrape %d: +Inf bucket %s, _count %s", i, a[1], c[1])
		}
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	m := NewMetrics(nil) // must not panic, instruments must work
	m.CacheHits.Inc()
	if got := m.CacheHits.Value(); got != 1 {
		t.Errorf("unregistered counter = %d", got)
	}
	m.StageSeconds[StageCacheLookup].Observe(0.001)
	m.RegisterGauge("rkranks_generation", func() float64 { return 1 })

	var nilC *Counter
	nilC.Inc()
	nilC.Add(5)
	var nilH *Histogram
	nilH.Observe(1)
	var nilR *Registry
	if err := nilR.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	reg.NewCounter("dup_total", "y")
}

func TestUnknownGaugePanics(t *testing.T) {
	m := NewMetrics(NewRegistry())
	defer func() {
		if recover() == nil {
			t.Error("unknown gauge name did not panic")
		}
	}()
	m.RegisterGauge("rkranks_not_in_catalog", func() float64 { return 0 })
}

func TestRegistryHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	buildCatalog().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "rkranks_requests_total{route=\"query\"} 4") {
		t.Errorf("handler body missing incremented counter:\n%s", rec.Body.String())
	}
}
