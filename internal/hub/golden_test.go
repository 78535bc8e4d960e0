package hub

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/graph"
	tg "rkranks/internal/testgraphs"
)

// TestBuildLabelsGolden pins the bytes BuildLabels produces. Each hash is
// the SHA-256 of the labeling's RKHL encoding, recorded from the serial
// re-filtering build that predates suffix-only commits, so any change to
// the wave partition, the root order, the prune-on-equality rule or the
// slab order shows here, for every worker count.
func TestBuildLabelsGolden(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		roots int
		want  string
	}{
		// 150 roots: five waves, so later waves prune against several
		// committed ones.
		{"dblp-undirected", gen.DBLPLike(gen.DBLPLikeParams{Nodes: 600, AttachPerNode: 4, Seed: 7}), 150,
			"64f29d565f94c5e4309f5d9edd74e3ba95bc1cc10b09d493bea84df4d070b1dd"},
		{"epinions-directed", gen.EpinionsLike(gen.EpinionsLikeParams{Nodes: 500, OutPerNode: 3, BackEdgeProb: 0.3, Seed: 5}), 120,
			"955e46fbcc1f36f2cb0a35f4e5c6ec34e30aaa943e72bd122a021b02de5fb158"},
		{"zero-weight-ties", tg.TiedGrid(20, 20), 100,
			"c96a52c4befbcad805aa00fd5f00a4b670304458e8a0d1000ff63e0373f5c49e"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			roots := Order(c.g, DegreeFirst, c.roots, Options{Seed: 1})
			for _, workers := range []int{1, 2, 3} {
				labels, err := BuildLabels(c.g, roots, workers)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := labels.Write(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != c.want {
					t.Fatalf("workers=%d: RKHL sha256 %s, want %s", workers, got, c.want)
				}
			}
		})
	}
}
