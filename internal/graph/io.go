package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Text format
//
//	# comment lines and blank lines are ignored
//	directed | undirected          (header, optional; default undirected)
//	nodes <N>                      (optional; pre-sizes the id space)
//	<u> <v> <w>                    (one edge per line)
//
// Endpoints are decimal ids when the `nodes` header is present, otherwise
// arbitrary labels interned in first-seen order. A label may not start
// with '#', and a `nodes` header may not follow labeled edges: WriteText
// could not write either back.

// ReadText parses the text edge-list format. Malformed input fails with an
// error wrapping ErrFormat, and a graph too large for int32 CSR offsets
// with one wrapping ErrTooLarge; both name the offending line.
func ReadText(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	b := NewBuilder(false)
	headerDone := false
	numeric := false
	lineNo := 0
	bad := func(format string, args ...any) error {
		return fmt.Errorf("line %d: %s: %w", lineNo, fmt.Sprintf(format, args...), ErrFormat)
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 1 && !headerDone && (fields[0] == "directed" || fields[0] == "undirected") {
			b = NewBuilder(fields[0] == "directed")
			continue
		}
		headerDone = true
		if len(fields) == 2 && fields[0] == "nodes" {
			if b.labels != nil {
				return nil, bad("nodes header after labeled edges")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > math.MaxInt32 {
				return nil, bad("bad node count %q", fields[1])
			}
			b.EnsureNodes(n)
			numeric = true
			continue
		}
		if len(fields) != 3 {
			return nil, bad("want `u v w`, got %q", line)
		}
		w, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, bad("bad weight %q: %v", fields[2], err)
		}
		var u, v NodeID
		if numeric {
			uu, err1 := strconv.Atoi(fields[0])
			vv, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil || uu < 0 || vv < 0 ||
				uu >= math.MaxInt32 || vv >= math.MaxInt32 {
				return nil, bad("bad numeric endpoint in %q", line)
			}
			b.EnsureNodes(uu + 1)
			b.EnsureNodes(vv + 1)
			u, v = int32(uu), int32(vv)
		} else {
			if strings.HasPrefix(fields[1], "#") {
				return nil, bad("label %q starts with the comment marker", fields[1])
			}
			u = b.AddLabeledNode(fields[0])
			v = b.AddLabeledNode(fields[1])
		}
		if err := b.AddEdge(u, v, w); err != nil {
			if errors.Is(err, ErrTooLarge) {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			return nil, bad("%v", err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	return b.Finalize(), nil
}

// WriteText serializes g in the text edge-list format.
func WriteText(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	dir := "undirected"
	if g.Directed() {
		dir = "directed"
	}
	if _, err := fmt.Fprintln(bw, dir); err != nil {
		return err
	}
	if !g.HasLabels() {
		if _, err := fmt.Fprintf(bw, "nodes %d\n", g.N()); err != nil {
			return err
		}
	}
	var werr error
	g.Edges(func(e Edge) bool {
		_, werr = fmt.Fprintf(bw, "%s %s %g\n", g.Label(e.From), g.Label(e.To), e.Weight)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

const binaryMagic = "RKGR1\n"

// WriteBinary serializes g in a compact little-endian binary format: the
// magic, a header of four uint64 (flags, nodes, arcs, logical edges), the
// forward CSR as int64 offsets, int32 targets and float64 weights, then
// the labels as uint32-length-prefixed strings. Transposes are rebuilt on
// load.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	// A bufio.Writer's first error sticks: Flush reports it, so the
	// writes below need no checks of their own.
	var buf [8]byte
	put := func(x uint64, size int) {
		binary.LittleEndian.PutUint64(buf[:], x)
		bw.Write(buf[:size])
	}
	bw.WriteString(binaryMagic)
	var flags uint64
	if g.Directed() {
		flags |= 1
	}
	if g.HasLabels() {
		flags |= 2
	}
	for _, h := range []uint64{flags, uint64(g.N()), uint64(g.fwd.NumArcs()), uint64(g.numEdges)} {
		put(h, 8)
	}
	for _, o := range g.fwd.offsets {
		put(uint64(o), 8)
	}
	for _, a := range g.fwd.arcs {
		put(uint64(uint32(a.To)), 4)
	}
	for _, a := range g.fwd.arcs {
		put(math.Float64bits(a.W), 8)
	}
	for _, l := range g.labels {
		put(uint64(len(l)), 4)
		bw.WriteString(l)
	}
	return bw.Flush()
}

const (
	// readChunkBytes bounds how much is allocated per read step when an
	// element count comes from an untrusted header.
	readChunkBytes = 1 << 16
	// maxLabelBytes bounds a single label read from untrusted input.
	maxLabelBytes = 1 << 20
)

// ReadBinary parses the binary format produced by WriteBinary. Corrupt or
// truncated input fails with an error wrapping ErrFormat, and a header
// whose arc count overflows int32 offsets with one wrapping ErrTooLarge.
// Allocation grows with the bytes actually read, never with the counts a
// header claims.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var hdr [len(binaryMagic) + 4*8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, readErr("header", err)
	}
	if magic := hdr[:len(binaryMagic)]; string(magic) != binaryMagic {
		return nil, fmt.Errorf("bad magic %q: %w", magic, ErrFormat)
	}
	field := func(i int) uint64 { return binary.LittleEndian.Uint64(hdr[len(binaryMagic)+8*i:]) }
	flags, n, arcs, m := field(0), field(1), field(2), field(3)
	directed := flags&1 != 0
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("corrupt header: %d nodes: %w", n, ErrFormat)
	}
	if arcs > math.MaxInt32 {
		return nil, fmt.Errorf("header claims %d arcs: %w", arcs, ErrTooLarge)
	}
	if int64(m) != edgesIn(int64(arcs), directed) {
		return nil, fmt.Errorf("corrupt header: %d edges in %d arcs: %w", m, arcs, ErrFormat)
	}
	c := &CSR{
		offsets: make([]int32, 0, min(n+1, readChunkBytes/8)),
		arcs:    make([]Arc, 0, min(arcs, readChunkBytes/16)),
	}
	err := readChunks(br, n+1, 8, func(b []byte) error {
		o := binary.LittleEndian.Uint64(b)
		if o > arcs {
			return fmt.Errorf("offset %d past %d arcs: %w", o, arcs, ErrFormat)
		}
		c.offsets = append(c.offsets, int32(o))
		return nil
	})
	if err != nil {
		return nil, readErr("offsets", err)
	}
	err = readChunks(br, arcs, 4, func(b []byte) error {
		c.arcs = append(c.arcs, Arc{To: int32(binary.LittleEndian.Uint32(b))})
		return nil
	})
	if err != nil {
		return nil, readErr("targets", err)
	}
	i := 0
	err = readChunks(br, arcs, 8, func(b []byte) error {
		c.arcs[i].W = math.Float64frombits(binary.LittleEndian.Uint64(b))
		i++
		return nil
	})
	if err != nil {
		return nil, readErr("weights", err)
	}
	// Validate the forward CSR before deriving the transpose: corrupted
	// offsets or out-of-range targets would otherwise index out of bounds
	// while transposing.
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("corrupt graph: %v: %w", err, ErrFormat)
	}
	g := &Graph{directed: directed, numEdges: int64(m), fwd: c, rev: c}
	if directed {
		g.rev = transpose(c)
	} else if !c.symmetric() {
		return nil, fmt.Errorf("corrupt graph: undirected adjacency is not symmetric: %w", ErrFormat)
	}
	if flags&2 != 0 {
		// n+1 offsets were read, so these allocations are bounded by the
		// input consumed so far.
		g.labels = make([]string, n)
		g.labelIdx = make(map[string]NodeID, n)
		var lb [4]byte
		for i := range g.labels {
			if _, err := io.ReadFull(br, lb[:]); err != nil {
				return nil, readErr("label length", err)
			}
			ln := binary.LittleEndian.Uint32(lb[:])
			if ln > maxLabelBytes {
				return nil, fmt.Errorf("corrupt label length %d at node %d: %w", ln, i, ErrFormat)
			}
			buf := make([]byte, ln)
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, readErr("label", err)
			}
			g.labels[i] = string(buf)
			g.labelIdx[g.labels[i]] = int32(i)
		}
	}
	return g, nil
}

// readChunks reads count values of size bytes each, passing each to fn,
// through a fixed buffer: a corrupt count fails at the end of the input
// instead of allocating up front. It stops at fn's first error.
func readChunks(r io.Reader, count uint64, size int, fn func([]byte) error) error {
	buf := make([]byte, min(count*uint64(size), readChunkBytes))
	for count > 0 {
		chunk := buf[:min(count*uint64(size), uint64(len(buf)))]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return err
		}
		for b := chunk; len(b) > 0; b = b[size:] {
			if err := fn(b[:size]); err != nil {
				return err
			}
		}
		count -= uint64(len(chunk) / size)
	}
	return nil
}

// readErr reports a failed read; running out of input means the file is
// truncated, which is an ErrFormat.
func readErr(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("reading %s: %w (%w)", what, io.ErrUnexpectedEOF, ErrFormat)
	}
	return fmt.Errorf("reading %s: %w", what, err)
}

// WriteFile writes g to path, choosing the binary format for a ".rkg"
// extension and text otherwise.
func WriteFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".rkg") {
		if err := WriteBinary(f, g); err != nil {
			return err
		}
	} else if err := WriteText(f, g); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile loads a graph from path, dispatching on the ".rkg" extension.
func ReadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".rkg") {
		return ReadBinary(f)
	}
	return ReadText(f)
}
