package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The ruler is a fixed job of bench-owned work, timed before every set-up
// and every round of a run to measure how fast the shared host runs at
// that moment. The host's speed drifts by 10-30% over minutes as other
// tenants load it, and every timing of the run drifts with it. The ruler
// calls no code of the repo, so a change to the program leaves it as it
// is, and dividing a timing by the ruler's median over the run takes the
// drift out (README.md, Host speed).
//
// The job has two parts, each shaped like the load the workloads put on
// the host: shortest-path searches on two goroutines at once, like the
// engines' memory-bound graph walks, and closed-loop HTTP round trips
// over loopback on two connections, like the server and client work.
const (
	rulerNodes  = 1 << 15
	rulerDegree = 6
)

// rulerJob sizes one measurement: searches and round trips, each split
// over two goroutines.
type rulerJob struct{ searches, trips int }

// benchRuler is the job every benchmark run measures. rulerRef is its
// usual time on the reference host (README.md, Reference numbers);
// timings are reported scaled to it, as the reference host would have
// measured them at its usual speed.
var benchRuler = rulerJob{searches: 6, trips: 600}

const rulerRef = 60 * time.Millisecond

// ruler holds the search graph, the loopback echo server and every
// measurement taken.
type ruler struct {
	off     []int32 // CSR offsets into to and w
	to      []int32
	w       []uint32
	url     string
	clients [2]*http.Client
	stop    func()
	job     rulerJob

	samples []rulerTimes
	// Allocations the ruler made, for the per-request allocation metrics
	// to leave out.
	mallocs, bytes uint64
}

// rulerTimes is one measurement's two parts.
type rulerTimes struct {
	search, wire time.Duration
}

func (t rulerTimes) total() time.Duration { return t.search + t.wire }

func newRuler(job rulerJob) (*ruler, error) {
	rng := rand.New(rand.NewSource(datasetSeed))
	r := &ruler{
		job: job,
		off: make([]int32, rulerNodes+1),
		to:  make([]int32, rulerNodes*rulerDegree),
		w:   make([]uint32, rulerNodes*rulerDegree),
	}
	for u := range rulerNodes {
		r.off[u+1] = int32((u + 1) * rulerDegree)
		for j := range rulerDegree {
			r.to[u*rulerDegree+j] = int32(rng.Intn(rulerNodes))
			r.w[u*rulerDegree+j] = uint32(1 + rng.Intn(100))
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ruler: %w", err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"ok":true}`)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once stopped
	}()
	r.url = "http://" + ln.Addr().String() + "/"
	for i := range r.clients {
		r.clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	r.stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-done
		for _, c := range r.clients {
			c.CloseIdleConnections()
		}
	}
	return r, nil
}

func (r *ruler) close() { r.stop() }

// measure times the job once and keeps the result.
func (r *ruler) measure() error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	defer func() {
		runtime.ReadMemStats(&after)
		r.mallocs += after.Mallocs - before.Mallocs
		r.bytes += after.TotalAlloc - before.TotalAlloc
	}()

	var t rulerTimes
	start := time.Now()
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dist := make([]uint32, rulerNodes)
			for i := g; i < r.job.searches; i += 2 {
				r.search(int32(i*7919%rulerNodes), dist)
			}
		}()
	}
	wg.Wait()
	t.search = time.Since(start)

	start = time.Now()
	errs := make([]error, len(r.clients))
	for s := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range r.job.trips / len(r.clients) {
				if errs[s] = r.trip(r.clients[s]); errs[s] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	t.wire = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("ruler: %w", err)
		}
	}
	r.samples = append(r.samples, t)
	return nil
}

func (r *ruler) trip(c *http.Client) error {
	resp, err := c.Get(r.url)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err
}

// search is Dijkstra from src over the whole graph, with a binary heap
// of (distance, node) pairs and lazy deletion.
func (r *ruler) search(src int32, dist []uint32) {
	for i := range dist {
		dist[i] = ^uint32(0)
	}
	type item struct {
		d uint32
		v int32
	}
	h := []item{{0, src}}
	dist[src] = 0
	for len(h) > 0 {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < len(h) && h[l].d < h[m].d {
				m = l
			}
			if l+1 < len(h) && h[l+1].d < h[m].d {
				m = l + 1
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		if top.d > dist[top.v] {
			continue
		}
		for e := r.off[top.v]; e < r.off[top.v+1]; e++ {
			v, d := r.to[e], top.d+r.w[e]
			if d >= dist[v] {
				continue
			}
			dist[v] = d
			h = append(h, item{d, v})
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p].d <= h[i].d {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		}
	}
}

// speed is how fast the host ran over the samples relative to the
// reference host: rulerRef over the samples' mean total, leaving out the
// fastest and the slowest tenth. A timing multiplied by it, or a rate
// divided by it, is scaled to the reference. The mean follows outside
// load that comes and goes within a run, as the timings do; the trim
// keeps one disturbed sample from moving it.
func speed(samples []rulerTimes) float64 {
	ts := make([]time.Duration, len(samples))
	for i, s := range samples {
		ts[i] = s.total()
	}
	slices.Sort(ts)
	cut := len(ts) / 10
	ts = ts[cut : len(ts)-cut]
	var sum time.Duration
	for _, t := range ts {
		sum += t
	}
	if sum <= 0 {
		return 1
	}
	return float64(rulerRef) * float64(len(ts)) / float64(sum)
}
