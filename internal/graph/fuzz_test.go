package graph

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// rkgr1Files returns the committed RKGR1 files. They were written by the
// WriteBinary that predates the int32 CSR, so decoding and re-encoding
// them pins the on-disk format.
func rkgr1Files(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "rkgr1", "*.rkg"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no RKGR1 seed files: %v", err)
	}
	files := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		files[filepath.Base(p)] = data
	}
	return files
}

// TestBinaryFormatCompat: files written before the int32 CSR decode, and
// re-encode byte for byte.
func TestBinaryFormatCompat(t *testing.T) {
	for name, data := range rkgr1Files(t) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Errorf("%s: re-encoding changed the bytes", name)
		}
	}
}

// TestReadBinaryRejectsOversizedHeader: an arc count past int32 offsets is
// refused from the header alone, with ErrTooLarge.
func TestReadBinaryRejectsOversizedHeader(t *testing.T) {
	hdr := []byte(binaryMagic)
	for _, h := range []uint64{1, 1, math.MaxInt32 + 1, math.MaxInt32 + 1} {
		hdr = binary.LittleEndian.AppendUint64(hdr, h)
	}
	if _, err := ReadBinary(bytes.NewReader(hdr)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

// decodeErrorTyped reports whether a decoder error is one of the
// documented kinds.
func decodeErrorTyped(err error) bool {
	return errors.Is(err, ErrFormat) || errors.Is(err, ErrTooLarge)
}

// allocated returns the bytes the heap handed out while decode ran.
func allocated(decode func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBudget is what decoding may allocate: fixed read buffers (a label
// may claim up to maxLabelBytes before its bytes are read), plus a
// multiple of the input length, plus a multiple of the node count the
// input declares.
func allocBudget(inputLen, nodes int) uint64 {
	return 2*maxLabelBytes + 128*uint64(inputLen) + 64*uint64(nodes)
}

// FuzzReadBinary: the binary decoder either fails with a typed error or
// returns a valid graph that survives WriteBinary/ReadBinary unchanged.
// It never panics and never allocates past allocBudget.
func FuzzReadBinary(f *testing.F) {
	for _, data := range rkgr1Files(f) {
		f.Add(data)
	}
	for _, text := range loaderEdgeCases {
		g, err := ReadText(strings.NewReader(text))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g *Graph
		var err error
		used := allocated(func() { g, err = ReadBinary(bytes.NewReader(data)) })
		nodes := 0
		if err == nil {
			nodes = g.N()
		}
		if budget := allocBudget(len(data), nodes); used > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), used, budget)
		}
		if err != nil {
			if !decodeErrorTyped(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-reading the decoder's own graph: %v", err)
		}
		sameGraph(t, g, back)
	})
}

// declaresHugeGraph reports whether text holds an integer token of 2^20
// or more that ReadText would accept as a node id or count. The format
// sizes the id space by declaration, so such an input rightly allocates
// in proportion to the graph it declares; skipping it keeps one fuzz
// run's memory small.
func declaresHugeGraph(data []byte) bool {
	for _, tok := range strings.Fields(string(data)) {
		if n, err := strconv.Atoi(tok); err == nil && n >= 1<<20 && n <= math.MaxInt32 {
			return true
		}
	}
	return false
}

// FuzzReadText: the text decoder either fails with a typed error or
// returns a valid graph that survives WriteText/ReadText unchanged. It
// never panics and never allocates past allocBudget.
func FuzzReadText(f *testing.F) {
	for _, text := range loaderEdgeCases {
		f.Add([]byte(text))
	}
	f.Add([]byte("# labeled\na b 1.5\nb c 2\nc a 0\nd c 1e-300\n"))
	f.Add([]byte("directed\nnodes 4\n3 0 0.5\n0 3 -0\n1 1 2\n"))
	f.Add([]byte("directed\nnodes x y 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaresHugeGraph(data) {
			t.Skip("declares a graph of 2^20 or more nodes")
		}
		var g *Graph
		var err error
		used := allocated(func() { g, err = ReadText(bytes.NewReader(data)) })
		nodes := 0
		if err == nil {
			nodes = g.N()
		}
		if budget := allocBudget(len(data), nodes); used > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), used, budget)
		}
		if err != nil {
			if !decodeErrorTyped(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-reading WriteText output %q: %v", buf.String(), err)
		}
		if !g.HasLabels() {
			sameGraph(t, g, back)
			return
		}
		// Labeled ids are assigned in first-seen order, which WriteText's
		// edge order need not reproduce: compare by label instead.
		if back.N() != g.N() || back.M() != g.M() || back.Directed() != g.Directed() {
			t.Fatalf("shape %d/%d/%v, want %d/%d/%v", back.N(), back.M(), back.Directed(), g.N(), g.M(), g.Directed())
		}
		if a, b := labeledEdges(g), labeledEdges(back); !slices.Equal(a, b) {
			t.Fatalf("edges by label changed:\n%v\nvs\n%v", a, b)
		}
	})
}

type labeledEdge struct {
	from, to string
	w        float64
}

// labeledEdges returns g's edges keyed by endpoint labels, sorted; an
// undirected edge lists its smaller label first.
func labeledEdges(g *Graph) []labeledEdge {
	var out []labeledEdge
	g.Edges(func(e Edge) bool {
		le := labeledEdge{g.Label(e.From), g.Label(e.To), e.Weight}
		if !g.Directed() && le.from > le.to {
			le.from, le.to = le.to, le.from
		}
		out = append(out, le)
		return true
	})
	slices.SortFunc(out, func(a, b labeledEdge) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to), cmp.Compare(a.w, b.w))
	})
	return out
}
