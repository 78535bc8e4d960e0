// Command rkserve serves reverse k-ranks queries over HTTP: the production
// front of the repository, wrapping a core.Pool (and, by default, one
// shared concurrent index that learns from all traffic) in the admission,
// deadline, observability, and drain machinery of internal/server.
//
// Usage:
//
//	rkserve -graph sf.rkg -addr :8080
//	rkserve -graph dblp.rkg -build-index -index-k 100       # index, then serve Indexed
//	rkserve -gen dblp -gen-nodes 5000 -addr :8080           # synthetic graph (demos, smoke tests)
//	rkserve -graph g.rkg -index g.ridx                      # serve a prebuilt index
//	rkserve -graph g.rkg -cache-mb 64                       # response cache + singleflight coalescing
//	rkserve -graph g.rkg -hub-count -1 -hub-save g.rkhl     # build a complete hub labeling, save, serve hublabel
//	rkserve -graph g.rkg -hub-load g.rkhl                   # serve hublabel from a prebuilt labeling
//	rkserve -graph g.rkg -shard 0/4                         # serve vertex shard 0 of 4 (see cmd/rkcluster)
//	rkserve -graph g.rkg -live                              # mutable graph: POST /v1/mutate applies live batches
//	rkserve -graph g.rkg -index-follow http://leader:8080   # replica: inherit the leader's learned index
//
// With -shard i/P the instance answers queries for its own vertex shard
// only (an internal/cluster partitioner mask over the candidate class);
// a cmd/rkcluster coordinator pointed at all P instances then serves the
// whole graph. Every shard must load the SAME graph and agree on
// (-shard-partitioner, P). A shard may be a replica SET: point several
// identical instances at the same shard spec and list them together in
// the coordinator's topology file. With -index-follow a replica
// cold-starts its dynamic index from a leader's snapshot and keeps
// absorbing the leader's refinement deltas instead of re-deriving the
// learned state from its own traffic.
//
// Endpoints: POST /v1/query, POST /v1/batch, POST /v1/mutate (with
// -live), GET /v1/index/snapshot, GET /v1/index/deltas, GET /healthz,
// GET /metrics, GET /debug/requestz (see internal/server). On
// SIGTERM/SIGINT the server drains: admission stops (503), every
// in-flight request completes, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rkranks/internal/api"
	"rkranks/internal/cache"
	"rkranks/internal/cluster"
	"rkranks/internal/core"
	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/live"
	"rkranks/internal/obs"
	"rkranks/internal/ridx"
	"rkranks/internal/server"
)

func main() {
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if err := run(os.Args[1:], logger, nil); err != nil {
		logger.Error("fatal", slog.String("err", err.Error()))
		os.Exit(1)
	}
}

// run boots the server and blocks until shutdown. ready, if non-nil,
// receives the bound address once the listener is up (used by tests and
// scripts that pick port 0).
func run(args []string, logger *slog.Logger, ready chan<- string) error {
	fs := flag.NewFlagSet("rkserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		graphPath = fs.String("graph", "", "graph file (.rkg binary or text edge list)")
		genType   = fs.String("gen", "", "serve a synthetic graph instead of -graph: dblp|epinions|road|gnm")
		genNodes  = fs.Int("gen-nodes", 5000, "node count for -gen")
		genSeed   = fs.Int64("gen-seed", 1, "seed for -gen")

		indexPath   = fs.String("index", "", "prebuilt index file (rkranks.SaveIndex format)")
		buildIndex  = fs.Bool("build-index", false, "build a concurrent index at startup")
		hubFrac     = fs.Float64("index-h", 0.1, "hub fraction h for -build-index")
		rankFrac    = fs.Float64("index-m", 0.1, "ranked fraction m for -build-index")
		indexK      = fs.Int("index-k", 100, "max supported k for -build-index")
		indexFollow = fs.String("index-follow", "", "bootstrap the index from this rkserve leader's /v1/index/snapshot and keep absorbing its deltas (replica cold start; excludes -index/-build-index/-live)")
		indexSync   = fs.Duration("index-sync", 2*time.Second, "delta poll period for -index-follow")

		hubLoad     = fs.String("hub-load", "", "prebuilt hub labeling file (rkranks.SaveHubLabels format); enables the hublabel algorithm")
		hubSave     = fs.String("hub-save", "", "write the labeling built by -hub-count to this file before serving")
		hubCount    = fs.Int("hub-count", 0, "build a hub labeling with this many roots at startup (-1 = all nodes, a complete labeling)")
		hubStrategy = fs.String("hub-strategy", "degree", "root-selection strategy for -hub-count: random|degree|closeness")
		hubWorkers  = fs.Int("hub-workers", 0, "build parallelism for -hub-count (0 = GOMAXPROCS; the labeling is identical for any value)")

		shardSpec = fs.String("shard", "", "serve one vertex shard, as i/P (e.g. 0/4); the coordinator must use the same partitioner and P")
		shardPart = fs.String("shard-partitioner", "modulo", "partitioner for -shard: modulo|degree")

		liveMode = fs.Bool("live", false, "serve a mutable graph behind POST /v1/mutate: weight changes patch in place, topology changes rebuild and swap")

		cacheMB   = fs.Int("cache-mb", 0, "response cache budget in MiB (0 disables); duplicate in-flight queries coalesce onto one engine permit")
		poolSize  = fs.Int("pool", 0, "engine pool size (0 = GOMAXPROCS-derived)")
		algo      = fs.String("algo", "", "default algorithm (empty = indexed when an index is loaded, else dynamic)")
		inflight  = fs.Int("max-inflight", 0, "max requests served concurrently (0 = 2x pool)")
		queue     = fs.Int("max-queue", 0, "max requests waiting for a slot (0 = 4x max-inflight)")
		timeout   = fs.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTO     = fs.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
		drainTO   = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		accessLog = fs.Bool("access-log", true, "emit structured access logs")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (see CONTRIBUTING.md)")
		slowMS    = fs.Int("slow-query-ms", 500, "flight-recorder slow threshold in ms; 0 records EVERY request to /debug/requestz")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexFollow != "" {
		if *liveMode {
			return fmt.Errorf("rkserve: -index-follow is not supported with -live (a live shard owns a private index that rebuilds swap out)")
		}
		if *indexPath != "" || *buildIndex {
			return fmt.Errorf("rkserve: -index-follow is mutually exclusive with -index/-build-index (the leader's snapshot IS the index)")
		}
	}

	g, err := loadGraph(*graphPath, *genType, *genNodes, *genSeed)
	if err != nil {
		return err
	}
	logger.Info("graph loaded", slog.Int("nodes", g.N()), slog.Int64("edges", g.M()), slog.Bool("directed", g.Directed()))

	// One registry-backed catalog for the whole process: the live store,
	// the response cache, and the server all record into it, so /metrics
	// is the union of their instruments.
	om := obs.NewMetrics(obs.NewRegistry())

	var healthExtra map[string]any
	var shardNo, shardCount int
	var opts core.Options
	if *shardSpec != "" {
		mask, shard, shards, err := shardMask(g, *shardSpec, *shardPart)
		if err != nil {
			return err
		}
		opts.Candidates = mask
		shardNo, shardCount = shard, shards
		// Published on /healthz so a rkcluster coordinator can verify
		// shard ownership at startup (see cluster.NewRemoteShard).
		healthExtra = map[string]any{
			"shard":             fmt.Sprintf("%d/%d", shard, shards),
			"shard_partitioner": *shardPart,
		}
		logger.Info("serving one vertex shard",
			slog.Int("shard", shard), slog.Int("of", shards), slog.String("partitioner", *shardPart))
	}
	ix, err := loadOrBuildIndex(g, *indexPath, *buildIndex, *hubFrac, *rankFrac, *indexK, *genSeed, logger)
	if err != nil {
		return err
	}
	labels, err := loadOrBuildLabels(g, *hubLoad, *hubSave, *hubCount, *hubStrategy, *hubWorkers, *genSeed, logger)
	if err != nil {
		return err
	}
	var inner cache.Target
	var follower *cluster.IndexFollower
	if *liveMode {
		lcfg := live.Config{Options: opts, PoolSize: *poolSize, Labels: labels, Metrics: om}
		if ix != nil {
			lcfg.Index = ix
		}
		if *shardSpec != "" {
			// Rebuilds must recompute the shard mask: the boot-time mask
			// does not cover vertices added after boot.
			part, err := cluster.ParsePartitioner(*shardPart)
			if err != nil {
				return err
			}
			lcfg.CandidateFunc = func(g2 *graph.Graph) ([]bool, error) {
				return cluster.ShardMask(g2, part, shardCount, shardNo, nil)
			}
		}
		store, err := live.NewStore(g, lcfg)
		if err != nil {
			return err
		}
		inner = store
		logger.Info("live store ready", slog.Int("engines", store.Size()),
			slog.Bool("indexed", ix != nil), slog.Bool("hub_labeled", labels != nil),
			slog.Uint64("generation", store.Generation()))
	} else {
		// Any index an immutable rkserve serves is wrapped for
		// replication: refinements it learns from traffic append to a
		// delta log that GET /v1/index/snapshot + /v1/index/deltas expose
		// to follower replicas. With -index-follow, this instance IS such
		// a follower: it cold-starts from the leader's snapshot and a
		// background loop keeps absorbing the leader's deltas (while its
		// own traffic keeps teaching the same index, and it can lead
		// further replicas in turn).
		var repl *ridx.Replicated
		if *indexFollow != "" {
			var seq, gen uint64
			repl, seq, gen, err = bootstrapFollowerIndex(context.Background(), *indexFollow, logger)
			if err != nil {
				return err
			}
			om.IndexSnapshotsLoaded.Inc()
			follower = cluster.NewIndexFollower(repl, api.NewClient(*indexFollow), seq, gen, cluster.IndexFollowerConfig{
				Interval: *indexSync, Metrics: om, Logger: logger,
			})
			logger.Info("index bootstrapped from leader", slog.String("leader", *indexFollow),
				slog.Uint64("seq", seq), slog.Uint64("index_generation", gen), slog.Int("max_k", repl.MaxK()))
		} else if ix != nil {
			repl = ridx.NewReplicated(ix, 0)
		}
		var pool *core.Pool
		opts.Labels = labels
		if repl != nil {
			if pool, err = core.NewPoolWithIndex(g, opts, *poolSize, repl); err != nil {
				return err
			}
		} else {
			pool = core.NewPool(g, opts, *poolSize)
		}
		inner = pool
		logger.Info("pool ready", slog.Int("engines", pool.Size()), slog.Bool("indexed", repl != nil), slog.Bool("hub_labeled", labels != nil))
	}

	var backend server.Backend = inner
	if *cacheMB > 0 {
		cached, err := cache.NewBackend(inner, cache.Config{MaxBytes: int64(*cacheMB) << 20, Metrics: om})
		if err != nil {
			return err
		}
		backend = cached
		logger.Info("response cache enabled", slog.Int("budget_mb", *cacheMB))
	}

	cfg := server.Config{
		Backend:          backend,
		Graph:            g,
		DefaultAlgorithm: *algo,
		MaxInFlight:      *inflight,
		MaxQueue:         *queue,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTO,
		HealthExtra:      healthExtra,
		EnablePprof:      *pprofOn,
		Metrics:          om,
	}
	if *slowMS == 0 {
		cfg.SlowQueryThreshold = -1 // record every request
	} else {
		cfg.SlowQueryThreshold = time.Duration(*slowMS) * time.Millisecond
	}
	if *accessLog {
		cfg.AccessLog = logger
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	logger.Info("serving", slog.String("addr", ln.Addr().String()))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if follower != nil {
		go follower.Run(ctx)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second SIGTERM kills hard

	// Graceful drain: refuse new work (503 on /healthz flips the load
	// balancer), let every admitted request finish, then close the
	// listener. Shutdown alone would be enough for in-flight HTTP, but
	// Drain also flips health and guarantees the admission queue empties.
	logger.Info("draining", slog.Duration("timeout", *drainTO))
	dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Error("drain incomplete", slog.String("err", err.Error()))
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	logger.Info("drained, exiting")
	return nil
}

// shardMask parses -shard's "i/P" spec into the shard's candidate mask.
func shardMask(g *graph.Graph, spec, partName string) ([]bool, int, int, error) {
	var shard, shards int
	if n, err := fmt.Sscanf(spec, "%d/%d", &shard, &shards); n != 2 || err != nil {
		return nil, 0, 0, fmt.Errorf("rkserve: -shard wants i/P (e.g. 0/4), got %q", spec)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return nil, 0, 0, fmt.Errorf("rkserve: -shard %q out of range", spec)
	}
	part, err := cluster.ParsePartitioner(partName)
	if err != nil {
		return nil, 0, 0, err
	}
	mask, err := cluster.ShardMask(g, part, shards, shard, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	return mask, shard, shards, nil
}

// loadOrBuildLabels resolves the hub-labeling flags to a shared read-only
// labeling for Options.Labels (nil when serving without one).
func loadOrBuildLabels(g *graph.Graph, path, save string, count int, strategy string, workers int, seed int64, logger *slog.Logger) (*hub.Labels, error) {
	switch {
	case path != "" && count != 0:
		return nil, fmt.Errorf("rkserve: -hub-load and -hub-count are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		labels, err := hub.ReadLabels(f)
		if err != nil {
			return nil, err
		}
		if labels.N() != g.N() || labels.Directed() != g.Directed() {
			return nil, fmt.Errorf("rkserve: labeling %s covers %d nodes (directed=%v), graph has %d (directed=%v)",
				path, labels.N(), labels.Directed(), g.N(), g.Directed())
		}
		logger.Info("hub labeling loaded", slog.String("path", path),
			slog.Int("hubs", labels.HubCount()), slog.Int64("bytes", labels.Bytes()))
		return labels, nil
	case count == 0:
		return nil, nil
	}
	h := count
	if h < 0 || h > g.N() {
		h = g.N()
	}
	strat, err := hub.ParseStrategy(strategy)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	roots := hub.Order(g, strat, h, hub.Options{Seed: seed, Workers: workers})
	labels, err := hub.BuildLabels(g, roots, workers)
	if err != nil {
		return nil, err
	}
	logger.Info("hub labeling built",
		slog.Int("hubs", h), slog.String("strategy", strat.String()),
		slog.Int64("entries", labels.Entries()), slog.Int64("bytes", labels.Bytes()),
		slog.Duration("elapsed", time.Since(start)))
	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return nil, err
		}
		if err := labels.Write(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		logger.Info("hub labeling saved", slog.String("path", save))
	}
	return labels, nil
}

// loadGraph resolves -graph/-gen. The -gen parameters are shared with
// rkcluster through gen.Named: cluster shards and their coordinator must
// build bit-identical graphs.
func loadGraph(path, genType string, nodes int, seed int64) (*graph.Graph, error) {
	switch {
	case path != "" && genType != "":
		return nil, fmt.Errorf("rkserve: -graph and -gen are mutually exclusive")
	case path != "":
		return graph.ReadFile(path)
	case genType == "":
		return nil, fmt.Errorf("rkserve: one of -graph or -gen is required")
	}
	return gen.Named(genType, nodes, seed)
}

// bootstrapFollowerIndex cold-starts a replica's index from its leader's
// snapshot endpoint, retrying for up to a minute so a follower may boot
// concurrently with (slightly before) its leader.
func bootstrapFollowerIndex(ctx context.Context, base string, logger *slog.Logger) (*ridx.Replicated, uint64, uint64, error) {
	client := api.NewClient(base)
	deadline := time.Now().Add(time.Minute)
	for {
		bctx, cancel := context.WithTimeout(ctx, 15*time.Second)
		repl, seq, gen, err := cluster.BootstrapIndex(bctx, client, 0)
		cancel()
		if err == nil {
			return repl, seq, gen, nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return nil, 0, 0, fmt.Errorf("rkserve: -index-follow bootstrap from %s: %w", base, err)
		}
		logger.Warn("index bootstrap failed; retrying", slog.String("leader", base), slog.String("err", err.Error()))
		time.Sleep(500 * time.Millisecond)
	}
}

// loadOrBuildIndex resolves the index flags to an index (nil when serving
// index-free).
func loadOrBuildIndex(g *graph.Graph, path string, build bool, h, m float64, k int, seed int64, logger *slog.Logger) (*ridx.ShardedIndex, error) {
	switch {
	case path != "" && build:
		return nil, fmt.Errorf("rkserve: -index and -build-index are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		snap, err := ridx.Read(f)
		if err != nil {
			return nil, err
		}
		ix := snap.Sharded()
		logger.Info("index loaded", slog.String("path", path), slog.Int("max_k", ix.MaxK()))
		return ix, nil
	case !build:
		return nil, nil
	}
	hn := int(float64(g.N()) * h)
	if hn < 1 {
		hn = 1
	}
	mn := int(float64(g.N()) * m)
	if mn < 1 {
		mn = 1
	}
	start := time.Now()
	hubs := hub.Select(g, hub.DegreeFirst, hn, hub.Options{Seed: seed})
	ix, err := ridx.BuildSharded(g, ridx.BuildParams{Hubs: hubs, M: mn, K: k}, 0)
	if err != nil {
		return nil, err
	}
	logger.Info("index built",
		slog.Int("hubs", hn), slog.Int("m", mn), slog.Int("max_k", k),
		slog.Duration("elapsed", time.Since(start)))
	return ix, nil
}
