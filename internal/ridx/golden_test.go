package ridx

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/graph"
	"rkranks/internal/hub"
	tg "rkranks/internal/testgraphs"
)

// TestBuildIndexGolden pins the bytes every builder produces. Each hash is
// the SHA-256 of the index's RKIX1 encoding, recorded from the Offer-loop
// builders, so a change to the (rank, node) order, the Check bounds, the
// hub list or the encoder shows here for Build and BuildSharded alike.
func TestBuildIndexGolden(t *testing.T) {
	road, stores := gen.RoadNetwork(gen.RoadNetworkParams{Rows: 20, Cols: 20, Stores: 40, Seed: 3})
	candidates, counted := gen.StoreClasses(road.N(), stores)
	roadHubs := hub.Select(road, hub.DegreeFirst, 30, hub.Options{Seed: 1})
	for _, h := range roadHubs {
		if candidates[h] {
			// A repeated hub: its second search offers nothing new.
			roadHubs = append(roadHubs, h)
			break
		}
	}
	degreeHubs := func(g *graph.Graph) []int32 { return hub.Select(g, hub.DegreeFirst, 40, hub.Options{Seed: 1}) }

	dblp := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 600, AttachPerNode: 4, Seed: 7})
	epinions := gen.EpinionsLike(gen.EpinionsLikeParams{Nodes: 500, OutPerNode: 3, BackEdgeProb: 0.3, Seed: 5})
	tied := tg.TiedGrid(20, 20)
	cases := []struct {
		name string
		g    *graph.Graph
		p    BuildParams
		want string
	}{
		{"dblp-undirected", dblp, BuildParams{Hubs: degreeHubs(dblp), M: 60, K: 8},
			"3dc8731d155f27b8fc6a8ce5b866d0cb6edb6c3a7c05d8a257efdf3cca5c61a9"},
		{"epinions-directed", epinions, BuildParams{Hubs: degreeHubs(epinions), M: 60, K: 8},
			"f6d4c5f204707560b627232065b1c9e46c6622539ef8b8a54d021c93206d3314"},
		{"zero-weight-ties", tied, BuildParams{Hubs: degreeHubs(tied), M: 60, K: 8},
			"1068a4ed3505313b59be17bb11361f1fc9752747fd1db53ada5f4114b84db699"},
		{"bichromatic-repeated-hub", road, BuildParams{Hubs: roadHubs, M: 40, K: 6, Counted: counted, Candidates: candidates},
			"570c59fca6d4de4657e0cfc4931b6a1d976be33b093567e01c2b8b2b27b6af9f"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			check := func(what string, ix Index, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				var buf bytes.Buffer
				if err := ix.Write(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != c.want {
					t.Fatalf("%s: RKIX1 sha256 %s, want %s", what, got, c.want)
				}
			}
			ix, err := Build(c.g, c.p)
			check("Build", ix, err)
			for _, workers := range []int{1, 2, 3} {
				sh, err := BuildSharded(c.g, c.p, workers)
				check("BuildSharded", sh, err)
			}
		})
	}
}
