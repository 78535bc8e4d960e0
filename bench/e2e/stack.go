package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"rkranks/internal/cache"
	"rkranks/internal/cluster"
	"rkranks/internal/core"
	"rkranks/internal/experiments"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/live"
	"rkranks/internal/obs"
	"rkranks/internal/ridx"
	"rkranks/internal/server"
)

// Deployment constants. Two engines match the two CPUs of the host the
// reference numbers were taken on.
const (
	poolEngines = 2
	cacheBytes  = 64 << 20
	hubRoots    = 400
	indexK      = 100
	shardGroups = 2
	replicas    = 2
)

// setupTimes splits one set-up into its parts.
type setupTimes struct {
	graph, index, labels, boot, total time.Duration
}

// stack is one deployment shape built in process and served over
// loopback HTTP. The fields a shape does not have stay nil or zero.
type stack struct {
	g          *graph.Graph         // graph at boot
	url        string               // front server
	om         *obs.Metrics         // front server's instruments
	cache      *cache.Backend       // response cache
	coord      *cluster.Coordinator // scatter-gather coordinator
	replicaOM  [][]*obs.Metrics     // per shard group, per replica server
	labelBytes int64
	tr         *tracer      // nil in untraced runs
	eng        *engineStats // engine work, traced runs only
	muts       *mutateStats // mutation batches, traced runs only
	setup      setupTimes
	stops      []func()
}

func newStack(tr *tracer) *stack {
	s := &stack{tr: tr, om: obs.NewMetrics(nil)}
	if tr != nil {
		s.eng, s.muts = newEngineStats(), &mutateStats{}
	}
	return s
}

// close stops every server the stack started, newest first.
func (s *stack) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// layer puts inner behind a bench-owned timer in traced runs; engine says
// whether inner is the engine layer, whose work counters are tallied. at
// names the shard replica the layer belongs to ("" for the front).
func (s *stack) layer(inner cache.Target, name, at, parent string, engine bool) cache.Target {
	if s.tr == nil {
		return inner
	}
	var eng *engineStats
	if engine {
		eng = s.eng
	}
	return s.tr.wrap(inner, name, at, parent, eng, s.muts)
}

// serve starts an HTTP server for h on a loopback port. In traced runs
// the whole handler is timed as span name.
func (s *stack) serve(h http.Handler, name, at, parent string) (string, error) {
	if s.tr != nil {
		h = s.tr.handler(h, name, at, parent)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once stopped
	}()
	s.stops = append(s.stops, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // every request has been answered by now
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// front serves backend through server.New as the stack's entry point.
func (s *stack) front(backend server.Backend) error {
	srv, err := server.New(server.Config{Backend: backend, Graph: s.g, Metrics: s.om})
	if err != nil {
		return err
	}
	s.url, err = s.serve(srv.Handler(), "server", "", "client")
	return err
}

func buildIndex(g *graph.Graph, d experiments.Config) (*ridx.ShardedIndex, error) {
	h := max(1, int(float64(g.N())*d.HubFrac))
	m := max(1, int(float64(g.N())*d.IndexFrac))
	hubs := hub.Select(g, hub.DegreeFirst, h, hub.Options{Seed: d.Seed})
	return ridx.BuildSharded(g, ridx.BuildParams{Hubs: hubs, M: m, K: indexK}, 0)
}

// buildServing is the serve-hot and serve-deep shape: server, response
// cache, and a pool of engines sharing one concurrent index and one
// degree-first hub labeling.
func buildServing(d experiments.Config, tr *tracer) (s *stack, err error) {
	s = newStack(tr)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	r, err := experiments.NewRunner(d)
	if err != nil {
		return s, err
	}
	t := time.Now()
	s.g = r.DBLP()
	s.setup.graph = time.Since(t)

	t = time.Now()
	ix, err := buildIndex(s.g, d)
	if err != nil {
		return s, err
	}
	s.setup.index = time.Since(t)

	t = time.Now()
	roots := hub.Order(s.g, hub.DegreeFirst, min(hubRoots, s.g.N()), hub.Options{Seed: d.Seed})
	labels, err := hub.BuildLabels(s.g, roots, 0)
	if err != nil {
		return s, err
	}
	s.labelBytes = labels.Bytes()
	s.setup.labels = time.Since(t)

	t = time.Now()
	pool, err := core.NewPoolWithIndex(s.g, core.Options{Labels: labels}, poolEngines, ix)
	if err != nil {
		return s, err
	}
	s.cache, err = cache.NewBackend(s.layer(pool, "core", "", "cache", true), cache.Config{MaxBytes: cacheBytes, Metrics: s.om})
	if err != nil {
		return s, err
	}
	err = s.front(s.layer(s.cache, "cache", "", "server", false))
	s.setup.boot = time.Since(t)
	return s, err
}

// buildCluster is the cluster-scatter shape: a cache-less front server
// over a coordinator of shardGroups replica groups. Each replica is its
// own server over a masked pool with a private copy of the index, reached
// through cluster.NewRemoteShard over loopback. A replica gets
// poolEngines engines, the pool rkserve sizes on a 2-CPU host: about one
// shard call in 150 refines thousands of candidates for 100-300 ms, and a
// one-engine replica would queue every later call behind it.
func buildCluster(d experiments.Config, tr *tracer) (s *stack, err error) {
	s = newStack(tr)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	r, err := experiments.NewRunner(d)
	if err != nil {
		return s, err
	}
	t := time.Now()
	s.g = r.DBLP()
	s.setup.graph = time.Since(t)

	t = time.Now()
	base, err := buildIndex(s.g, d)
	if err != nil {
		return s, err
	}
	indexes := make([]*ridx.ShardedIndex, shardGroups*replicas)
	for i := range indexes {
		indexes[i] = base.Snapshot().Sharded()
	}
	s.setup.index = time.Since(t)

	t = time.Now()
	ccfg := cluster.Config{Metrics: s.om}
	groups := make([]cluster.ShardBackend, shardGroups)
	s.replicaOM = make([][]*obs.Metrics, shardGroups)
	for i := range groups {
		spec := fmt.Sprintf("%d/%d", i, shardGroups)
		mask, err := cluster.ShardMask(s.g, cluster.Modulo{}, shardGroups, i, nil)
		if err != nil {
			return s, err
		}
		members := make([]cluster.ShardBackend, replicas)
		for j := range members {
			pool, err := core.NewPoolWithIndex(s.g, core.Options{Candidates: mask}, poolEngines, indexes[i*replicas+j])
			if err != nil {
				return s, err
			}
			om := obs.NewMetrics(nil)
			s.replicaOM[i] = append(s.replicaOM[i], om)
			at := fmt.Sprintf("s%d.r%d", i, j)
			srv, err := server.New(server.Config{
				Backend:     s.layer(pool, "core", at, "shard.server", true),
				Graph:       s.g,
				Metrics:     om,
				HealthExtra: map[string]any{"shard": spec, "shard_partitioner": "modulo"},
			})
			if err != nil {
				return s, err
			}
			url, err := s.serve(srv.Handler(), "shard.server", at, "cluster")
			if err != nil {
				return s, err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			members[j], err = cluster.NewRemoteShard(ctx, url, cluster.RemoteExpect{Nodes: s.g.N(), Shard: spec, Partitioner: "modulo"})
			cancel()
			if err != nil {
				return s, err
			}
		}
		if groups[i], err = cluster.NewReplicaGroup(members, ccfg); err != nil {
			return s, err
		}
	}
	if s.coord, err = cluster.New(groups, ccfg); err != nil {
		return s, err
	}
	s.stops = append(s.stops, func() { _ = s.coord.Close() }) // remote shards hold no resources
	err = s.front(s.layer(s.coord, "cluster", "", "server", false))
	s.setup.boot = time.Since(t)
	return s, err
}

// buildLive is the live-churn shape: server, response cache, and a live
// store of poolEngines engines on the road network.
func buildLive(d experiments.Config, tr *tracer) (s *stack, err error) {
	s = newStack(tr)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	r, err := experiments.NewRunner(d)
	if err != nil {
		return s, err
	}
	t := time.Now()
	s.g, _ = r.Road()
	s.setup.graph = time.Since(t)

	t = time.Now()
	store, err := live.NewStore(s.g, live.Config{PoolSize: poolEngines, Metrics: s.om})
	if err != nil {
		return s, err
	}
	s.cache, err = cache.NewBackend(s.layer(store, "live", "", "cache", true), cache.Config{MaxBytes: cacheBytes, Metrics: s.om})
	if err != nil {
		return s, err
	}
	err = s.front(s.layer(s.cache, "cache", "", "server", false))
	s.setup.boot = time.Since(t)
	return s, err
}
