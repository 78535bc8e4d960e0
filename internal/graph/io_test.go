package graph

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func sameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() || a.Directed() != b.Directed() {
		t.Fatalf("shape mismatch: %d/%d/%v vs %d/%d/%v",
			a.N(), a.M(), a.Directed(), b.N(), b.M(), b.Directed())
	}
	for v := int32(0); int(v) < a.N(); v++ {
		if an, bn := a.Neighbors(v), b.Neighbors(v); !slices.Equal(an, bn) {
			t.Fatalf("node %d: adjacency %v vs %v", v, an, bn)
		}
		if an, bn := a.RNeighbors(v), b.RNeighbors(v); !slices.Equal(an, bn) {
			t.Fatalf("node %d: reverse adjacency %v vs %v", v, an, bn)
		}
		if a.Label(v) != b.Label(v) {
			t.Fatalf("node %d label %q vs %q", v, a.Label(v), b.Label(v))
		}
	}
}

func TestTextRoundTripLabeled(t *testing.T) {
	b := NewBuilder(false)
	x := b.AddLabeledNode("x")
	y := b.AddLabeledNode("y")
	z := b.AddLabeledNode("z")
	b.MustAddEdge(x, y, 1.25)
	b.MustAddEdge(y, z, 2.5)
	g := b.Finalize()

	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
}

func TestTextRoundTripNumericDirected(t *testing.T) {
	b := NewBuilder(true)
	b.EnsureNodes(5)
	b.MustAddEdge(0, 4, 0.5)
	b.MustAddEdge(4, 0, 1.5)
	b.MustAddEdge(2, 3, 2)
	g := b.Finalize()

	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "directed\n") {
		t.Errorf("missing header: %q", text)
	}
	if !strings.Contains(text, "nodes 5") {
		t.Errorf("missing nodes header: %q", text)
	}
	got, err := ReadText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
}

func TestReadTextCommentsAndBlanks(t *testing.T) {
	in := `# a comment
undirected

# another
a b 1.5
b c 2
`
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("N=%d M=%d", g.N(), g.M())
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"bad weight":      "a b xyz\n",
		"missing field":   "a b\n",
		"negative weight": "a b -1\n",
		"bad node count":  "nodes -3\n",
		"bad numeric":     "nodes 5\na b 1\n",
		// WriteText could not write either back.
		"label with comment marker": "a #b 1\n",
		"nodes after labels":        "a b 1\nnodes 3\n",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// TestReadTextKeywordLabels: a keyword is a header only alone on its line
// (`nodes` with its one argument); on a three-field line it is a label, not
// a header that swallows the edge.
func TestReadTextKeywordLabels(t *testing.T) {
	g, err := ReadText(strings.NewReader("directed x 1\nnodes y 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Directed() || g.N() != 4 || g.M() != 2 {
		t.Fatalf("directed=%v N=%d M=%d, want an undirected graph of 4 labeled nodes and 2 edges", g.Directed(), g.N(), g.M())
	}
	if _, ok := g.NodeByLabel("directed"); !ok {
		t.Error("label \"directed\" missing")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, directed := range []bool{false, true} {
		b := NewBuilder(directed)
		b.EnsureNodes(40)
		for i := 0; i < 120; i++ {
			b.MustAddEdge(int32(rng.Intn(40)), int32(rng.Intn(40)), rng.Float64()*10)
		}
		g := b.Finalize()
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, g, got)
	}
}

func TestBinaryRoundTripLabels(t *testing.T) {
	b := NewBuilder(false)
	u := b.AddLabeledNode("node with spaces")
	v := b.AddLabeledNode("ünïcode")
	b.MustAddEdge(u, v, 3)
	g := b.Finalize()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, g, got)
	if id, ok := got.NodeByLabel("ünïcode"); !ok || id != v {
		t.Error("label index lost in binary round trip")
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTAGRAPH")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	b := NewBuilder(false)
	b.EnsureNodes(3)
	b.MustAddEdge(0, 1, 1)
	g := b.Finalize()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{7, 20, len(full) - 3} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := NewBuilder(true)
	b.EnsureNodes(6)
	b.MustAddEdge(0, 5, 1)
	b.MustAddEdge(5, 2, 2)
	g := b.Finalize()

	for _, name := range []string{"g.txt", "g.rkg"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameGraph(t, g, got)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.rkg")); err == nil {
		t.Error("missing file accepted")
	}
}
