// Command rkranks answers reverse k-ranks queries (and the related top-k /
// reverse top-k queries) against a graph file.
//
// Usage:
//
//	rkranks -graph dblp.rkg -q 42 -k 10
//	rkranks -graph dblp.rkg -q 42 -k 10 -algo indexed -h 0.1 -m 0.1 -saveindex dblp.rki
//	rkranks -graph toy.txt -qlabel Alice -k 2 -compare -trace
//	rkranks -graph dblp.rkg -q 42 -k 10 -query reverse-topk
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"rkranks/internal/core"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	"rkranks/internal/ridx"
	"rkranks/internal/topk"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rkranks: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

type cliOptions struct {
	graphPath string
	q         int
	qlabel    string
	k         int
	algo      string
	queryType string
	bounds    string
	hFrac     float64
	mFrac     float64
	strat     string
	kmax      int
	seed      int64
	compare   bool
	trace     bool
	saveIndex string
	loadIndex string
}

func parseFlags(args []string) (*cliOptions, error) {
	fs := flag.NewFlagSet("rkranks", flag.ContinueOnError)
	o := &cliOptions{}
	fs.StringVar(&o.graphPath, "graph", "", "graph file (required)")
	fs.IntVar(&o.q, "q", -1, "query node id")
	fs.StringVar(&o.qlabel, "qlabel", "", "query node label (alternative to -q)")
	fs.IntVar(&o.k, "k", 10, "result size")
	fs.StringVar(&o.algo, "algo", "dynamic", "engine: naive|static|dynamic|indexed")
	fs.StringVar(&o.queryType, "query", "rkranks", "query type: rkranks|topk|reverse-topk")
	fs.StringVar(&o.bounds, "bounds", "three", "dynamic bounds: parent|count|height|three")
	fs.Float64Var(&o.hFrac, "h", 0.1, "hub fraction (indexed)")
	fs.Float64Var(&o.mFrac, "m", 0.1, "per-hub rank fraction (indexed)")
	fs.StringVar(&o.strat, "hubs", "degree", "hub strategy: random|degree|closeness")
	fs.IntVar(&o.kmax, "kmax", 100, "index K (indexed)")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.compare, "compare", false, "run naive, static and dynamic and compare")
	fs.BoolVar(&o.trace, "trace", false, "print the engine's per-node decision trace")
	fs.StringVar(&o.saveIndex, "saveindex", "", "save the built index to this path (indexed)")
	fs.StringVar(&o.loadIndex, "loadindex", "", "load an index from this path instead of building (indexed)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.graphPath == "" {
		return nil, fmt.Errorf("-graph is required")
	}
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	g, err := graph.ReadFile(o.graphPath)
	if err != nil {
		return fmt.Errorf("loading graph: %w", err)
	}
	fmt.Fprintf(stdout, "graph: %d nodes, %d edges, directed=%v\n", g.N(), g.M(), g.Directed())

	query := int32(o.q)
	if o.qlabel != "" {
		id, ok := g.NodeByLabel(o.qlabel)
		if !ok {
			return fmt.Errorf("no node labeled %q", o.qlabel)
		}
		query = id
	}
	if query < 0 || int(query) >= g.N() {
		return fmt.Errorf("query node %d out of range", query)
	}

	switch o.queryType {
	case "topk":
		for i, e := range topk.TopK(g, query, o.k) {
			fmt.Fprintf(stdout, "%3d. %s (distance %g)\n", i+1, g.Label(e.Node), e.Dist)
		}
		return nil
	case "reverse-topk":
		res := topk.ReverseTopK(g, query, o.k)
		fmt.Fprintf(stdout, "reverse top-%d result (%d nodes):\n", o.k, len(res))
		for _, e := range res {
			fmt.Fprintf(stdout, "  %s (rank %d)\n", g.Label(e.Node), e.Rank)
		}
		return nil
	case "rkranks":
	default:
		return fmt.Errorf("unknown -query %q", o.queryType)
	}

	b, err := core.ParseBounds(o.bounds)
	if err != nil {
		return err
	}
	eng := core.NewEngine(g, core.Options{Bounds: b})
	eng.SetTracing(o.trace)

	algos := []string{o.algo}
	if o.compare {
		algos = []string{"naive", "static", "dynamic"}
	}
	for _, name := range algos {
		a, err := core.ParseAlgorithm(name)
		if err != nil {
			return err
		}
		if a == core.Indexed {
			ix, err := obtainIndex(o, g, stdout)
			if err != nil {
				return err
			}
			eng.SetIndex(ix)
		}
		start := time.Now()
		res, err := eng.Query(a, query, o.k)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Fprintf(stdout, "\n[%s] reverse %d-ranks of %s (%v, %d refinements):\n",
			a, o.k, g.Label(query), elapsed.Round(time.Microsecond), res.Stats.Refinements)
		for i, e := range res.Entries {
			fmt.Fprintf(stdout, "%3d. %s (rank %d)\n", i+1, g.Label(e.Node), e.Rank)
		}
		for _, ev := range res.Trace {
			fmt.Fprintf(stdout, "    trace: %s (%s)\n", ev, g.Label(ev.Node))
		}
		if a == core.Indexed && o.saveIndex != "" {
			if err := writeIndex(o.saveIndex, eng.Index()); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "saved index to %s\n", o.saveIndex)
		}
	}
	return nil
}

// obtainIndex loads the -loadindex file, or builds an index from the
// -h, -m, -kmax and -hubs flags on all cores.
func obtainIndex(o *cliOptions, g *graph.Graph, stdout io.Writer) (*ridx.ShardedIndex, error) {
	if o.loadIndex != "" {
		f, err := os.Open(o.loadIndex)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		snap, err := ridx.Read(f)
		if err != nil {
			return nil, fmt.Errorf("loading index: %w", err)
		}
		ix := snap.Sharded()
		fmt.Fprintf(stdout, "loaded index from %s (%d entries)\n", o.loadIndex, ix.Entries())
		return ix, nil
	}
	st, err := hub.ParseStrategy(o.strat)
	if err != nil {
		return nil, err
	}
	h := int(float64(g.N()) * o.hFrac)
	if h < 1 {
		h = 1
	}
	m := int(float64(g.N()) * o.mFrac)
	if m < 1 {
		m = 1
	}
	fmt.Fprintf(stdout, "building index (H=%d, M=%d, K=%d, %s hubs)...\n", h, m, o.kmax, st)
	start := time.Now()
	ix, err := ridx.BuildSharded(g, ridx.BuildParams{
		Hubs: hub.Select(g, st, h, hub.Options{Seed: o.seed}),
		M:    m, K: o.kmax,
	}, 0)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "index built in %v (%d entries, ~%d bytes)\n",
		time.Since(start).Round(time.Millisecond), ix.Entries(), ix.SizeBytes())
	return ix, nil
}

func writeIndex(path string, ix ridx.Index) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ix.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
