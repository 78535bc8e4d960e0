package hub

import (
	"bytes"
	"math"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/sssp"
	tg "rkranks/internal/testgraphs"
)

// relTol is the oracle comparison tolerance: label entries are sums of
// real path weights, so they can differ from the reference Dijkstra's sum
// by accumulated ulps, never by more than a relative hair.
const relTol = 1e-9

func closeEnough(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= relTol*scale || diff == 0
}

// labelGraphs is the fuzz corpus the oracle tests sweep: random sparse
// and dense, directed, bichromatic-shaped (skewed), and disconnected.
func labelGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	disconnected := func() *graph.Graph {
		b := graph.NewBuilder(false)
		b.EnsureNodes(60)
		// Two components plus 10 isolated nodes.
		for i := int32(0); i < 24; i++ {
			b.MustAddEdge(i, i+1, float64(i%7)+0.5)
		}
		for i := int32(30); i < 49; i++ {
			b.MustAddEdge(i, i+1, 1.25)
		}
		return b.Finalize()
	}
	return map[string]*graph.Graph{
		"gnm-sparse":   gen.GNM(80, 160, false, 11),
		"gnm-dense":    gen.GNM(60, 600, false, 12),
		"gnm-directed": gen.GNM(70, 420, true, 13),
		"dblp-like":    gen.DBLPLike(gen.DBLPLikeParams{Nodes: 90, AttachPerNode: 3, Seed: 14}),
		"disconnected": disconnected(),
	}
}

// oracleDistances computes the true distance matrix row for src.
func oracleRow(g *graph.Graph, s *sssp.Search, src int32) []float64 {
	row := make([]float64, g.N())
	for i := range row {
		row[i] = math.Inf(1)
	}
	s.Reset(src)
	for {
		v, d, ok := s.Pop()
		if !ok {
			break
		}
		row[v] = d
		s.Expand(v, d)
	}
	return row
}

// TestLabelsMatchDijkstraOracle: for every graph in the corpus and both a
// partial (H = N/4) and a complete (H = N) labeling, Dist agrees with a
// reference Dijkstra on every certified pair — exactly the invariant the
// HubLabel engine's soundness rests on. For the complete labeling every
// pair is certified and ok == false must coincide with unreachability.
func TestLabelsMatchDijkstraOracle(t *testing.T) {
	for name, g := range labelGraphs(t) {
		t.Run(name, func(t *testing.T) {
			s := sssp.New(g)
			n := int32(g.N())
			for _, h := range []int{g.N() / 4, g.N()} {
				if h < 1 {
					h = 1
				}
				roots := Order(g, DegreeFirst, h, Options{Seed: 5})
				labels, err := BuildLabels(g, roots, 0)
				if err != nil {
					t.Fatal(err)
				}
				complete := h == g.N()
				for u := int32(0); u < n; u++ {
					truth := oracleRow(g, s, u)
					for v := int32(0); v < n; v++ {
						got, ok := labels.Dist(u, v)
						reachable := !math.IsInf(truth[v], 1)
						if ok && (!reachable || got < truth[v]*(1-relTol)) {
							// Upper-bound property holds for EVERY pair, even
							// uncertified ones: label entries are real paths.
							t.Fatalf("h=%d: Dist(%d,%d)=%g below true %g", h, u, v, got, truth[v])
						}
						if !labels.Certified(u, v) {
							continue
						}
						if !reachable {
							if ok {
								t.Fatalf("h=%d: Dist(%d,%d)=%g but unreachable", h, u, v, got)
							}
							continue
						}
						if !ok {
							if complete {
								t.Fatalf("h=%d: no label path for certified reachable (%d,%d)", h, u, v)
							}
							continue
						}
						if !closeEnough(got, truth[v]) {
							t.Fatalf("h=%d: Dist(%d,%d)=%g, true %g", h, u, v, got, truth[v])
						}
					}
				}
				if complete {
					// Every pair certified: the cover invariant extended to
					// the full root set.
					for u := int32(0); u < n; u++ {
						for v := int32(0); v < n; v++ {
							if !labels.Certified(u, v) {
								t.Fatalf("complete labeling left (%d,%d) uncertified", u, v)
							}
						}
					}
				}
			}
		})
	}
}

// TestBuildLabelsDeterministicAcrossWorkers: the wave-parallel build
// commits root searches in ordinal order, so the serialized labeling is
// byte-identical for every worker count.
func TestBuildLabelsDeterministicAcrossWorkers(t *testing.T) {
	for name, g := range labelGraphs(t) {
		roots := Order(g, DegreeFirst, g.N()/2+1, Options{Seed: 9})
		var want []byte
		for _, workers := range []int{1, 2, 3, 8} {
			labels, err := BuildLabels(g, roots, workers)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := labels.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
				continue
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Fatalf("%s: labeling differs between worker counts (workers=%d)", name, workers)
			}
		}
	}
}

// TestLabelIORoundTrip: Write -> ReadLabels -> Write reproduces the exact
// bytes, and the loaded labeling answers Dist identically.
func TestLabelIORoundTrip(t *testing.T) {
	for name, g := range labelGraphs(t) {
		roots := Order(g, DegreeFirst, g.N()/3+1, Options{Seed: 21})
		labels, err := BuildLabels(g, roots, 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := labels.Write(&buf); err != nil {
			t.Fatal(err)
		}
		raw := append([]byte(nil), buf.Bytes()...)
		loaded, err := ReadLabels(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loaded.N() != labels.N() || loaded.Directed() != labels.Directed() ||
			loaded.HubCount() != labels.HubCount() || loaded.Entries() != labels.Entries() ||
			loaded.Bytes() != labels.Bytes() {
			t.Fatalf("%s: metadata changed across round trip", name)
		}
		var again bytes.Buffer
		if err := loaded.Write(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again.Bytes()) {
			t.Fatalf("%s: round trip not byte-identical", name)
		}
		for u := int32(0); u < int32(g.N()); u += 3 {
			for v := int32(0); v < int32(g.N()); v += 5 {
				d1, ok1 := labels.Dist(u, v)
				d2, ok2 := loaded.Dist(u, v)
				if ok1 != ok2 || (ok1 && d1 != d2) {
					t.Fatalf("%s: Dist(%d,%d) changed across round trip", name, u, v)
				}
			}
		}
	}
}

// TestReadLabelsRejectsCorruption: the loader refuses wrong magic, wrong
// version, truncation, and offset tables that do not validate, instead of
// serving silently wrong distances.
func TestReadLabelsRejectsCorruption(t *testing.T) {
	g := gen.GNM(40, 120, false, 31)
	labels, err := BuildLabels(g, Order(g, DegreeFirst, 10, Options{}), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := labels.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		if _, err := ReadLabels(bytes.NewReader(f(b))); err == nil {
			t.Errorf("%s: corrupted labeling accepted", name)
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("bad version", func(b []byte) []byte { b[4] = 0xFF; return b })
	mutate("truncated header", func(b []byte) []byte { return b[:10] })
	mutate("truncated slabs", func(b []byte) []byte { return b[:len(b)-9] })
	mutate("huge hub count", func(b []byte) []byte {
		// Header word 3 (after magic + version + n) is the hub count.
		for i := 4 + 24; i < 4+32; i++ {
			b[i] = 0xFF
		}
		return b
	})
	if _, err := ReadLabels(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// TestBuildLabelsValidation: malformed root lists are refused.
func TestBuildLabelsValidation(t *testing.T) {
	g := tg.Path(5)
	if _, err := BuildLabels(g, []int32{0, 99}, 0); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := BuildLabels(g, []int32{1, 1}, 0); err == nil {
		t.Error("duplicate root accepted")
	}
	if _, err := BuildLabels(g, []int32{-1}, 0); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := BuildLabels(g, nil, 0); err == nil {
		t.Error("empty root list accepted")
	}
}

// TestOrderAgreesWithSelect: Select is Order plus an id sort — same set,
// different arrangement — and Order respects the strategy's priority.
func TestOrderAgreesWithSelect(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 80, AttachPerNode: 3, Seed: 41})
	for _, s := range []Strategy{Random, DegreeFirst, ClosenessFirst} {
		order := Order(g, s, 12, Options{Seed: 3, Samples: 20})
		sel := Select(g, s, 12, Options{Seed: 3, Samples: 20})
		if len(order) != len(sel) {
			t.Fatalf("%v: Order %d hubs, Select %d", s, len(order), len(sel))
		}
		inOrder := map[int32]bool{}
		for _, v := range order {
			inOrder[v] = true
		}
		for _, v := range sel {
			if !inOrder[v] {
				t.Fatalf("%v: Select hub %d missing from Order", s, v)
			}
		}
	}
	// Degree-first order leads with the highest-degree node.
	star := tg.Star([]float64{1, 1, 1, 1})
	if order := Order(star, DegreeFirst, 3, Options{}); order[0] != 0 {
		t.Errorf("degree order = %v, want hub 0 first", order)
	}
}

// TestClosenessScoresWorkerDeterminism: the parallel closeness sweep
// accumulates farness in sample order, so hub choice is identical for
// every worker count.
func TestClosenessScoresWorkerDeterminism(t *testing.T) {
	g := gen.GNM(120, 480, false, 51)
	var want []int32
	for _, workers := range []int{1, 2, 4, 16} {
		got := Order(g, ClosenessFirst, 15, Options{Seed: 7, Samples: 40, Workers: workers})
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d changed closeness order", workers)
			}
		}
	}
}

// TestLabelAccessors: the slab accessors agree with each other — every
// out-label entry appears in its hub's inverted in-list and vice versa
// (undirected labeling: out == in).
func TestLabelAccessors(t *testing.T) {
	g := gen.GNM(50, 200, false, 61)
	roots := Order(g, DegreeFirst, 20, Options{Seed: 1})
	labels, err := BuildLabels(g, roots, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := labels.Hubs(); len(got) != 20 || got[0] != roots[0] {
		t.Fatalf("Hubs() = %v, want prefix of %v", got, roots)
	}
	for i, r := range roots {
		if labels.HubOrdinal(r) != int32(i) {
			t.Fatalf("HubOrdinal(%d) = %d, want %d", r, labels.HubOrdinal(r), i)
		}
	}
	type key struct {
		ord  int32
		node int32
	}
	inv := map[key]float64{}
	invOff, invNode, invDist := labels.Inv()
	for j := int32(0); j < int32(labels.HubCount()); j++ {
		nodes, dists := labels.HubList(j)
		if len(nodes) != int(invOff[j+1]-invOff[j]) {
			t.Fatalf("HubList(%d) disagrees with Inv offsets", j)
		}
		for x, node := range nodes {
			inv[key{j, node}] = dists[x]
			if invNode[invOff[j]+int32(x)] != node || invDist[invOff[j]+int32(x)] != dists[x] {
				t.Fatalf("Inv slab disagrees with HubList(%d)", j)
			}
		}
	}
	var entries int64
	for u := int32(0); u < int32(g.N()); u++ {
		ords, dists := labels.InLabel(u)
		oOrds, oDists := labels.OutLabel(u)
		if len(ords) != len(oOrds) {
			t.Fatalf("undirected labeling: in/out labels differ at %d", u)
		}
		for i := range ords {
			if ords[i] != oOrds[i] || dists[i] != oDists[i] {
				t.Fatalf("undirected labeling: in/out entries differ at %d", u)
			}
			d, ok := inv[key{ords[i], u}]
			if !ok || d != dists[i] {
				t.Fatalf("label entry (%d, hub %d) missing from inverted list", u, ords[i])
			}
			entries++
		}
	}
	if entries != labels.Entries() {
		t.Fatalf("Entries() = %d, accessors saw %d", labels.Entries(), entries)
	}
	if int64(len(inv)) != entries {
		t.Fatalf("inverted lists hold %d entries, labels hold %d", len(inv), entries)
	}
}

// BenchmarkBuildLabels times one labeling build at a fixed size: a
// 3000-node dblp-like graph with 200 degree-first roots (seven waves), on
// GOMAXPROCS workers.
func BenchmarkBuildLabels(b *testing.B) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 3000, AttachPerNode: 7, ExtraCollabFactor: 0.5, Seed: 1})
	roots := Order(g, DegreeFirst, 200, Options{Seed: 1})
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildLabels(g, roots, 0); err != nil {
			b.Fatal(err)
		}
	}
}
