package hub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// On-disk hub-labeling format: the magic string, a version word, a fixed
// header (node count, directedness, hub count, slab entry counts), then
// the flat slabs verbatim in little-endian order. Everything after the
// header is exactly the in-memory representation, so Write/Read round-trip
// byte-identically and loading is one validation pass plus bulk reads —
// no reconstruction. Bump labelVersion on any layout change; readers
// reject versions they do not understand rather than guessing.
const (
	labelMagic   = "RKHL"
	labelVersion = 1
)

// ErrFormat is wrapped by every error ReadLabels returns for input that is
// not a well-formed labeling.
var ErrFormat = errors.New("hub: malformed labeling")

// readChunk bounds how many bytes one read step allocates while a count
// from an untrusted header is still unconfirmed by the input.
const readChunk = 1 << 16

// Write serializes the labeling.
func (l *Labels) Write(w io.Writer) error {
	if _, err := io.WriteString(w, labelMagic); err != nil {
		return err
	}
	directed := uint64(0)
	inEntries := uint64(0)
	if l.directed {
		directed = 1
		inEntries = uint64(len(l.inHub))
	}
	hdr := []uint64{
		labelVersion,
		uint64(l.n),
		directed,
		uint64(len(l.hubs)),
		uint64(len(l.outHub)),
		inEntries, // 0 for undirected: the in slabs alias the out slabs
		uint64(len(l.invNode)),
	}
	for _, h := range hdr {
		if err := binary.Write(w, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	slabs := []any{l.hubs, l.hubOrd, l.outOff, l.outHub, l.outDist}
	if l.directed {
		slabs = append(slabs, l.inOff, l.inHub, l.inDist)
	}
	slabs = append(slabs, l.invOff, l.invNode, l.invDist)
	for _, s := range slabs {
		if err := binary.Write(w, binary.LittleEndian, s); err != nil {
			return err
		}
	}
	return nil
}

// ReadLabels deserializes a labeling written by Write. The caller is
// responsible for checking the labeling matches its graph (N, Directed);
// this function only validates internal consistency. Input that is not a
// well-formed labeling fails with an error wrapping ErrFormat, and
// allocation grows with the bytes actually read, never with the counts a
// header claims.
func ReadLabels(r io.Reader) (*Labels, error) {
	var hdr [len(labelMagic) + 7*8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, readErr("header", err)
	}
	if magic := hdr[:len(labelMagic)]; string(magic) != labelMagic {
		return nil, fmt.Errorf("hub: bad label magic %q: %w", magic, ErrFormat)
	}
	field := func(i int) uint64 { return binary.LittleEndian.Uint64(hdr[len(labelMagic)+8*i:]) }
	if v := field(0); v != labelVersion {
		return nil, fmt.Errorf("hub: unsupported label version %d (want %d): %w", v, labelVersion, ErrFormat)
	}
	n, directed, hubs, outE, inE, invE := field(1), field(2), field(3), field(4), field(5), field(6)
	if n > math.MaxInt32 || hubs == 0 || hubs > n || directed > 1 ||
		outE > math.MaxInt32 || inE > math.MaxInt32 || invE > math.MaxInt32 {
		return nil, fmt.Errorf("hub: corrupt label header: n=%d directed=%d hubs=%d out=%d in=%d inv=%d: %w",
			n, directed, hubs, outE, inE, invE, ErrFormat)
	}
	if directed == 0 && inE != 0 {
		return nil, fmt.Errorf("hub: corrupt label header: undirected labeling with %d in-entries: %w", inE, ErrFormat)
	}
	l := &Labels{n: int32(n), directed: directed == 1}
	// The first failed read sticks in err; later reads are skipped.
	var err error
	ints := func(dst *[]int32, count uint64, what string) {
		if err == nil {
			if *dst, err = readSlab(r, count, 4, func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }); err != nil {
				err = readErr(what, err)
			}
		}
	}
	floats := func(dst *[]float64, count uint64, what string) {
		if err == nil {
			if *dst, err = readSlab(r, count, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }); err != nil {
				err = readErr(what, err)
			}
		}
	}
	ints(&l.hubs, hubs, "hubs")
	ints(&l.hubOrd, n, "hub ordinals")
	ints(&l.outOff, n+1, "out-label offsets")
	ints(&l.outHub, outE, "out-label hubs")
	floats(&l.outDist, outE, "out-label distances")
	if l.directed {
		ints(&l.inOff, n+1, "in-label offsets")
		ints(&l.inHub, inE, "in-label hubs")
		floats(&l.inDist, inE, "in-label distances")
	} else {
		l.inOff, l.inHub, l.inDist = l.outOff, l.outHub, l.outDist
	}
	ints(&l.invOff, hubs+1, "inverted-list offsets")
	ints(&l.invNode, invE, "inverted-list nodes")
	floats(&l.invDist, invE, "inverted-list distances")
	if err != nil {
		return nil, err
	}
	if err := l.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrFormat)
	}
	return l, nil
}

// validate cross-checks the deserialized slabs so later queries can index
// without bounds anxiety and trust the orders they scan in: offsets must
// be monotone and end at the slab length, hub ordinals and node ids in
// range, hubOrd consistent with hubs, distances finite and non-negative,
// and every span in the order BuildLabels writes it.
func (l *Labels) validate() error {
	for j, rt := range l.hubs {
		if rt < 0 || rt >= l.n {
			return fmt.Errorf("hub: label root %d out of range", rt)
		}
		if l.hubOrd[rt] != int32(j) {
			return fmt.Errorf("hub: root %d has ordinal %d, want %d", rt, l.hubOrd[rt], j)
		}
	}
	for v, ord := range l.hubOrd {
		if ord < -1 || int(ord) >= len(l.hubs) {
			return fmt.Errorf("hub: node %d has ordinal %d out of range", v, ord)
		}
		if ord >= 0 && l.hubs[ord] != int32(v) {
			return fmt.Errorf("hub: node %d claims ordinal %d held by %d", v, ord, l.hubs[ord])
		}
	}
	if err := checkOffsets(l.outOff, len(l.outHub), "out"); err != nil {
		return err
	}
	if err := checkOffsets(l.inOff, len(l.inHub), "in"); err != nil {
		return err
	}
	if err := checkOffsets(l.invOff, len(l.invNode), "inverted"); err != nil {
		return err
	}
	if err := l.checkSpans(l.outOff, l.outHub, l.outDist, "out"); err != nil {
		return err
	}
	if l.directed {
		if err := l.checkSpans(l.inOff, l.inHub, l.inDist, "in"); err != nil {
			return err
		}
	}
	// The HubLabel engine counts an inverted list's prefix below a
	// distance as that many distinct nodes, so each list must be sorted
	// by (distance, node) and name every node at most once.
	seen := make([]int32, l.n) // seen[t] == j+1: t is already in hub j's list
	for j := range l.hubs {
		lo, hi := l.invOff[j], l.invOff[j+1]
		for x := lo; x < hi; x++ {
			t, d := l.invNode[x], l.invDist[x]
			switch {
			case t < 0 || t >= l.n:
				return fmt.Errorf("hub: inverted-list node %d out of range", t)
			case !validDist(d):
				return fmt.Errorf("hub: inverted list of hub %d holds distance %g", j, d)
			case x > lo && !ascending(l.invDist[x-1], l.invNode[x-1], d, t):
				return fmt.Errorf("hub: inverted list of hub %d is not ascending by (distance, node)", j)
			case seen[t] == int32(j)+1:
				return fmt.Errorf("hub: inverted list of hub %d repeats node %d", j, t)
			}
			seen[t] = int32(j) + 1
		}
	}
	return nil
}

// checkSpans checks every node's label span: hub ordinals in range,
// distances finite and non-negative, entries strictly ascending by
// (distance, ordinal) as the engine's threshold scans assume.
func (l *Labels) checkSpans(off, hubs []int32, dists []float64, what string) error {
	for u := 0; u+1 < len(off); u++ {
		for x := off[u]; x < off[u+1]; x++ {
			h, d := hubs[x], dists[x]
			switch {
			case h < 0 || int(h) >= len(l.hubs):
				return fmt.Errorf("hub: %s-label hub ordinal %d out of range", what, h)
			case !validDist(d):
				return fmt.Errorf("hub: %s-label of node %d holds distance %g", what, u, d)
			case x > off[u] && !ascending(dists[x-1], hubs[x-1], d, h):
				return fmt.Errorf("hub: %s-label of node %d is not ascending by (distance, ordinal)", what, u)
			}
		}
	}
	return nil
}

// validDist reports whether d is finite and non-negative (NaN is not).
func validDist(d float64) bool { return d >= 0 && d <= math.MaxFloat64 }

// ascending reports whether (d1, k1) sorts strictly before (d2, k2).
func ascending(d1 float64, k1 int32, d2 float64, k2 int32) bool {
	return d1 < d2 || (d1 == d2 && k1 < k2)
}

func checkOffsets(off []int32, entries int, what string) error {
	if len(off) == 0 || off[0] != 0 || int(off[len(off)-1]) != entries {
		return fmt.Errorf("hub: corrupt %s-label offsets", what)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("hub: non-monotone %s-label offsets at %d", what, i)
		}
	}
	return nil
}

// readSlab reads count little-endian values of size bytes each through a
// fixed buffer, decoding each with dec. The slab grows with the bytes that
// arrive, so a corrupt count fails at the end of the input instead of
// allocating up front.
func readSlab[T any](r io.Reader, count uint64, size int, dec func([]byte) T) ([]T, error) {
	buf := make([]byte, min(count*uint64(size), readChunk))
	out := make([]T, 0, min(count, uint64(readChunk/size)))
	for uint64(len(out)) < count {
		chunk := buf[:min((count-uint64(len(out)))*uint64(size), uint64(len(buf)))]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		for b := chunk; len(b) > 0; b = b[size:] {
			out = append(out, dec(b))
		}
	}
	return out, nil
}

// readErr reports a failed read; running out of input means the file is
// truncated, which is an ErrFormat.
func readErr(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("hub: reading %s: %w (%w)", what, io.ErrUnexpectedEOF, ErrFormat)
	}
	return fmt.Errorf("hub: reading %s: %w", what, err)
}
