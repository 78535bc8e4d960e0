// Package ridx implements the reverse k-ranks index of Section 5 of the
// paper: a Check Dictionary recording how far single-source searches from
// each node have already looked, and a Reverse Rank Dictionary holding, for
// every node v, the best (at most K) known (u, Rank(u, v)) pairs.
//
// The index is seeded by running an M-step SSSP from each of H hub nodes
// (Section 5.2) and is refined dynamically as queries run (Section 5.3):
// every rank refinement performed by the indexed engine feeds its settled
// nodes back into both dictionaries, so the index keeps getting better.
//
// Build runs the hub searches one after another through Offer.
// BuildParallel and BuildSharded run them on worker goroutines, each into
// private per-node top-K lists, and merge the lists per node in parallel;
// their dictionaries are identical to Build's.
//
// # Implementations and concurrency
//
// Index is an interface over two implementations sharing one on-disk
// format:
//
//   - SerialIndex — the plain single-goroutine structure. Fastest for a
//     dedicated engine; not safe for concurrent use.
//   - ShardedIndex — lock-striped dictionaries (per-stripe RWMutex with
//     copy-on-write entry lists, atomic Check bounds). Safe for any mix of
//     concurrent readers and writers, so one index can back a whole pool
//     of indexed engines and keep learning from all of them at once.
//
// Dictionary updates commute: entries are exact (u, Rank(u, v)) facts kept
// best-maxK by (rank, node), and Check bounds only grow. Interleaving
// updates from concurrent queries therefore yields the same dictionaries
// as any serial ordering of those updates — the sharded index accepts
// writes from many engines without coordination beyond its stripes.
//
// # Check Dictionary semantics
//
// Check(u) = c is a certified lower bound: for any node v that is NOT
// recorded in Reverse(v) with source u, Rank(u, v) >= c. The paper stores
// the number of SSSP steps taken from u; under distance ties that count can
// exceed the true rank of an unsettled node, so this implementation stores
// the tie-aware rank of the last settled node instead, which is provably
// safe (an unsettled node is at least as far as the last settled one, hence
// ranks no better). Without ties the two definitions coincide.
package ridx

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"rkranks/internal/graph"
	"rkranks/internal/rank"
	"rkranks/internal/sssp"
)

// Index is the two-dictionary structure of Section 5.2, as an interface
// over the serial and sharded implementations. All methods operate on
// exact facts (see the package docs), so every implementation answers
// queries identically; they differ only in whether concurrent use is safe
// (reported by Concurrent).
type Index interface {
	// MaxK returns the largest query k the index supports.
	MaxK() int
	// Hubs returns the hub nodes the index was built from.
	Hubs() []int32
	// N returns the number of nodes covered.
	N() int
	// Check returns the Check Dictionary bound for u (0 when u was never
	// the source of a recorded search).
	Check(u int32) int32
	// RaiseCheck raises the Check Dictionary bound for u; bounds only grow
	// (each recorded search certifies at least what previous ones did).
	RaiseCheck(u, bound int32)
	// Reverse returns the stored reverse-rank list of v, ordered by
	// (rank, node). Callers must not modify the returned slice. For the
	// serial index it aliases mutable storage and must not be held across
	// Offer calls; the sharded index returns an immutable snapshot.
	Reverse(v int32) []rank.Entry
	// LookupRank returns Rank(u, v) when the pair is recorded.
	LookupRank(v, u int32) (int32, bool)
	// Offer records Rank(u, v) = r in the Reverse Rank Dictionary of v,
	// keeping only the best maxK entries ordered by (rank, node). Ranks are
	// exact, so a re-offered pair is ignored. It reports whether the
	// dictionary changed.
	Offer(v, u, r int32) bool
	// Entries returns the total number of reverse-rank entries stored.
	Entries() int64
	// SizeBytes estimates the in-memory footprint of the index payload.
	SizeBytes() int64
	// Write serializes the index; both implementations produce the same
	// format, readable by Read (serial) or ReadSharded (sharded).
	Write(w io.Writer) error
	// Concurrent reports whether the index is safe for concurrent use by
	// multiple engines (true only for ShardedIndex). Pools require it
	// before accepting Indexed queries.
	Concurrent() bool
	// Generation is the index's answer-set generation, starting at 0.
	// Ordinary refinement (Offer/RaiseCheck) never moves it: dictionary
	// updates are monotone exact facts, so canonical query results are
	// identical before and after them. BumpGeneration moves it when the
	// index is invalidated or replaced wholesale — response caches key
	// cached answers on the generation so a bump orphans them all.
	Generation() uint64
	// BumpGeneration advances Generation (see there).
	BumpGeneration()
	// Invalidate clears both dictionaries and advances the generation:
	// the invalidate-on-touch path of the live mutation pipeline. A graph
	// mutation can lower recorded ranks and certified Check bounds, so
	// every stored fact becomes untrustworthy at once; after a wholesale
	// clear the index re-learns from subsequent query refinements exactly
	// as it did from a cold start. Canonical results are index-state
	// independent, so answers stay byte-identical throughout.
	Invalidate()
}

// SerialIndex is the single-goroutine Index implementation. It is not safe
// for concurrent use: the indexed query engine both reads and writes it.
// Use ShardedIndex (or SerialIndex.Sharded) to share an index between
// engines.
type SerialIndex struct {
	maxK  int
	hubs  []int32
	check []int32
	rrd   [][]rank.Entry
	gen   uint64
}

// New returns an empty serial index over n nodes supporting reverse
// k-ranks queries with k <= maxK.
func New(n, maxK int) *SerialIndex {
	if maxK < 1 {
		panic("ridx: maxK must be >= 1")
	}
	return &SerialIndex{
		maxK:  maxK,
		check: make([]int32, n),
		rrd:   make([][]rank.Entry, n),
	}
}

// BuildParams configures Build.
type BuildParams struct {
	Hubs []int32 // hub nodes to precompute from
	M    int     // SSSP steps per hub (number of nearest nodes ranked)
	K    int     // maximum k supported by queries against this index

	// Counted optionally restricts rank counting to a node class
	// (bichromatic mode, Definition 3). Nil counts every node.
	Counted []bool

	// Candidates optionally restricts which hubs contribute entries
	// (bichromatic mode, Definition 4): only candidate-class nodes can be
	// query results, so only they may occupy Reverse Rank Dictionary
	// slots — a slot held by a non-candidate would break the eviction
	// argument behind the Check Dictionary prune (k of the at most maxK
	// better-ranked entries must themselves be eligible results).
	// Non-candidate hubs are skipped. Nil admits every hub.
	Candidates []bool
}

// Build precomputes a serial index: an M-step ranked SSSP from every hub
// (Section 5.2). The per-hub cost is O(M log M + E*) where E* is the number
// of arcs incident to the M settled nodes.
func Build(g *graph.Graph, p BuildParams) (*SerialIndex, error) {
	if err := checkParams(p); err != nil {
		return nil, err
	}
	ix := New(g.N(), p.K)
	ix.hubs = p.eligibleHubs()
	s := sssp.New(g)
	for _, h := range ix.hubs {
		addHub(ix, s, h, p.M, p.Counted)
	}
	return ix, nil
}

// eligibleHubs filters the hub list to candidate-class nodes (see the
// Candidates field).
func (p BuildParams) eligibleHubs() []int32 {
	out := make([]int32, 0, len(p.Hubs))
	for _, h := range p.Hubs {
		if p.Candidates == nil || p.Candidates[h] {
			out = append(out, h)
		}
	}
	return out
}

// sink receives a hub search's results: a SerialIndex in Build, a
// worker's private lists in BuildParallel.
type sink interface {
	Offer(v, u, r int32) bool
	RaiseCheck(u, bound int32)
}

// addHub runs the M-step ranked SSSP from hub and feeds the results into
// ix, so the serial and the parallel builders share one definition.
func addHub(ix sink, s *sssp.Search, hub int32, m int, counted []bool) {
	s.Reset(hub)
	strictBelow := 0
	settledCounted := 0
	level := math.Inf(-1)
	last := int32(0)
	for settledCounted < m {
		v, d, ok := s.Next()
		if !ok {
			// Whole reachable component settled: any node absent from the
			// dictionaries is unreachable from hub.
			last = math.MaxInt32
			break
		}
		if v == hub {
			continue
		}
		if counted != nil && !counted[v] {
			continue
		}
		if d > level {
			strictBelow = settledCounted
			level = d
		}
		settledCounted++
		r := int32(strictBelow + 1)
		ix.Offer(v, hub, r)
		last = r
	}
	ix.RaiseCheck(hub, last)
}

func checkParams(p BuildParams) error {
	if p.M < 1 {
		return fmt.Errorf("ridx: M must be >= 1, got %d", p.M)
	}
	if p.K < 1 {
		return fmt.Errorf("ridx: K must be >= 1, got %d", p.K)
	}
	return nil
}

// MaxK returns the largest query k the index supports.
func (ix *SerialIndex) MaxK() int { return ix.maxK }

// Hubs returns the hub nodes the index was built from.
func (ix *SerialIndex) Hubs() []int32 { return ix.hubs }

// N returns the number of nodes covered.
func (ix *SerialIndex) N() int { return len(ix.check) }

// Concurrent reports that a SerialIndex must not be shared between
// goroutines.
func (ix *SerialIndex) Concurrent() bool { return false }

// Generation returns the answer-set generation (see Index.Generation).
func (ix *SerialIndex) Generation() uint64 { return ix.gen }

// BumpGeneration advances the answer-set generation.
func (ix *SerialIndex) BumpGeneration() { ix.gen++ }

// Invalidate clears both dictionaries and advances the generation (see
// Index.Invalidate). MaxK and the hub list are preserved: they describe
// the index's shape, not graph-dependent facts.
func (ix *SerialIndex) Invalidate() {
	for i := range ix.check {
		ix.check[i] = 0
	}
	for i := range ix.rrd {
		ix.rrd[i] = nil
	}
	ix.gen++
}

// Check returns the Check Dictionary bound for u (0 when u was never the
// source of a recorded search).
func (ix *SerialIndex) Check(u int32) int32 { return ix.check[u] }

// RaiseCheck raises the Check Dictionary bound for u; bounds only grow
// (each recorded search certifies at least what previous ones did).
func (ix *SerialIndex) RaiseCheck(u, bound int32) {
	if bound > ix.check[u] {
		ix.check[u] = bound
	}
}

// Reverse returns the stored reverse-rank list of v, ordered by
// (rank, node). The returned slice aliases index storage; callers must not
// modify it and must not hold it across Offer calls.
func (ix *SerialIndex) Reverse(v int32) []rank.Entry { return ix.rrd[v] }

// LookupRank returns Rank(u, v) when the pair is recorded.
func (ix *SerialIndex) LookupRank(v, u int32) (int32, bool) {
	return lookupRank(ix.rrd[v], u)
}

func lookupRank(list []rank.Entry, u int32) (int32, bool) {
	for _, e := range list {
		if e.Node == u {
			return e.Rank, true
		}
	}
	return 0, false
}

// offerPos locates where (u, r) would sit in a (rank, node)-ordered entry
// list; dup reports that u is already recorded (ranks are exact, so a
// re-offer is always a no-op).
func offerPos(list []rank.Entry, u, r int32) (pos int, dup bool) {
	for _, e := range list {
		if e.Node == u {
			return 0, true
		}
	}
	pos = len(list)
	for i, e := range list {
		if r < e.Rank || (r == e.Rank && u < e.Node) {
			return i, false
		}
	}
	return pos, false
}

// offerToList merges (u, r) into a best-maxK entry list ordered by
// (rank, node). When inPlace is true the input slice is mutated (serial
// index); otherwise a changed list is a fresh allocation and the input is
// left intact (copy-on-write for the sharded index, whose readers hold
// published slices without locks). changed reports whether the dictionary
// gained or reordered an entry.
func offerToList(list []rank.Entry, u, r int32, maxK int, inPlace bool) (out []rank.Entry, changed bool) {
	pos, dup := offerPos(list, u, r)
	if dup || pos >= maxK {
		return list, false
	}
	if inPlace {
		if len(list) < maxK {
			list = append(list, rank.Entry{})
		}
		copy(list[pos+1:], list[pos:])
		list[pos] = rank.Entry{Node: u, Rank: r}
		return list, true
	}
	n := len(list) + 1
	if n > maxK {
		n = maxK
	}
	fresh := make([]rank.Entry, n)
	copy(fresh, list[:pos])
	fresh[pos] = rank.Entry{Node: u, Rank: r}
	copy(fresh[pos+1:], list[pos:])
	return fresh, true
}

// Offer records Rank(u, v) = r in the Reverse Rank Dictionary of v, keeping
// only the best maxK entries ordered by (rank, node). Ranks are exact, so a
// re-offered pair is ignored. It reports whether the dictionary changed.
func (ix *SerialIndex) Offer(v, u, r int32) bool {
	list, changed := offerToList(ix.rrd[v], u, r, ix.maxK, true)
	if changed {
		ix.rrd[v] = list
	}
	return changed
}

// Entries returns the total number of reverse-rank entries stored.
func (ix *SerialIndex) Entries() int64 {
	var n int64
	for _, l := range ix.rrd {
		n += int64(len(l))
	}
	return n
}

// SizeBytes estimates the in-memory footprint of the index payload
// (dictionary entries and check bounds), mirroring the "Index Size" columns
// of Tables 6-9.
func (ix *SerialIndex) SizeBytes() int64 {
	return sizeBytes(int64(len(ix.check)), ix.Entries())
}

func sizeBytes(n, entries int64) int64 {
	const entryBytes = 8 // int32 node + int32 rank
	return n*4 + entries*entryBytes + n*24
}

// Clone returns a deep copy; used by experiments that reset the index
// between query batches (Table 14).
func (ix *SerialIndex) Clone() *SerialIndex {
	cp := &SerialIndex{
		maxK:  ix.maxK,
		hubs:  append([]int32(nil), ix.hubs...),
		check: append([]int32(nil), ix.check...),
		rrd:   make([][]rank.Entry, len(ix.rrd)),
	}
	for i, l := range ix.rrd {
		if len(l) > 0 {
			cp.rrd[i] = append([]rank.Entry(nil), l...)
		}
	}
	return cp
}

// Sharded converts the index into a ShardedIndex safe for concurrent use,
// taking ownership of the entry lists (the receiver must not be used
// afterwards). The conversion is O(n) pointer moves, not a deep copy.
func (ix *SerialIndex) Sharded() *ShardedIndex {
	sh := newSharded(len(ix.check), ix.maxK)
	sh.hubs = ix.hubs
	copy(sh.check, ix.check)
	copy(sh.rrd, ix.rrd)
	ix.rrd = nil
	return sh
}

const indexMagic = "RKIX1\n"

// ErrFormat is wrapped by every error Read and ReadSharded return for
// input that is not a well-formed index.
var ErrFormat = errors.New("ridx: malformed index")

// readChunk bounds how many bytes one read step allocates while a count
// from an untrusted header is still unconfirmed by the input.
const readChunk = 1 << 16

// Write serializes the index.
func (ix *SerialIndex) Write(w io.Writer) error {
	return writeIndex(w, ix.maxK, ix.hubs, ix.check, ix.rrd, ix.Entries())
}

// writeIndex emits the shared on-disk format from raw dictionary state;
// both implementations funnel through it (the sharded index passes a
// consistent snapshot). The format is the magic, a header of four uint64
// (K, nodes, hubs, entries), the hubs and Check bounds as int32, then per
// node a uint32 length and that many (node, rank) int32 pairs, all
// little-endian.
func writeIndex(w io.Writer, maxK int, hubs, check []int32, rrd [][]rank.Entry, entries int64) error {
	bw := bufio.NewWriter(w)
	// A bufio.Writer's first error sticks: Flush reports it, so the
	// writes below need no checks of their own.
	var buf [8]byte
	put := func(x uint64, size int) {
		binary.LittleEndian.PutUint64(buf[:], x)
		bw.Write(buf[:size])
	}
	bw.WriteString(indexMagic)
	for _, h := range []uint64{uint64(maxK), uint64(len(check)), uint64(len(hubs)), uint64(entries)} {
		put(h, 8)
	}
	for _, h := range hubs {
		put(uint64(uint32(h)), 4)
	}
	for _, c := range check {
		put(uint64(uint32(c)), 4)
	}
	for _, l := range rrd {
		put(uint64(len(l)), 4)
		for _, e := range l {
			put(uint64(uint32(e.Node)), 4)
			put(uint64(uint32(e.Rank)), 4)
		}
	}
	return bw.Flush()
}

// Read deserializes an index written by Write (either implementation; the
// on-disk format is shared). Use ReadSharded, or Sharded on the result, to
// obtain a concurrency-safe index instead.
//
// Input that is not a well-formed index fails with an error wrapping
// ErrFormat: a truncated file, a header out of range, a hub or entry node
// outside [0, n), a rank below 1, a list longer than K, out of (rank,
// node) order or repeating a node, or an entry count that disagrees with
// the lists. Allocation grows with the bytes actually read, never with
// the counts a header claims.
func Read(r io.Reader) (*SerialIndex, error) {
	d := &decoder{r: bufio.NewReader(r)}
	hdr, err := d.next(len(indexMagic) + 4*8)
	if err != nil {
		return nil, readErr("header", err)
	}
	if magic := hdr[:len(indexMagic)]; string(magic) != indexMagic {
		return nil, fmt.Errorf("ridx: bad magic %q: %w", magic, ErrFormat)
	}
	field := func(i int) uint64 { return binary.LittleEndian.Uint64(hdr[len(indexMagic)+8*i:]) }
	maxK, n, nhubs, entries := field(0), field(1), field(2), field(3)
	if maxK < 1 || maxK > math.MaxInt32 || n > math.MaxInt32 || nhubs > n {
		return nil, fmt.Errorf("ridx: corrupt header: K=%d n=%d hubs=%d: %w", maxK, n, nhubs, ErrFormat)
	}
	hubs, err := d.int32s(int(nhubs))
	if err != nil {
		return nil, readErr("hubs", err)
	}
	for _, h := range hubs {
		if h < 0 || uint64(h) >= n {
			return nil, fmt.Errorf("ridx: hub %d out of range [0,%d): %w", h, n, ErrFormat)
		}
	}
	// The O(n) tables below are allocated only once the n Check bounds
	// have arrived.
	check, err := d.int32s(int(n))
	if err != nil {
		return nil, readErr("check bounds", err)
	}
	ix := &SerialIndex{maxK: int(maxK), hubs: hubs, check: check, rrd: make([][]rank.Entry, n)}
	seen := make([]int32, n) // seen[u] == v+1: u is already in v's list
	var total uint64
	for v := range ix.rrd {
		b, err := d.next(4)
		if err != nil {
			return nil, readErr("list length", err)
		}
		ln := binary.LittleEndian.Uint32(b)
		if uint64(ln) > maxK {
			return nil, fmt.Errorf("ridx: list for %d has %d entries, K=%d: %w", v, ln, maxK, ErrFormat)
		}
		if ln == 0 {
			continue
		}
		if b, err = d.next(8 * int(ln)); err != nil {
			return nil, readErr("list", err)
		}
		list := make([]rank.Entry, ln)
		for i := range list {
			e := rank.Entry{Node: int32(binary.LittleEndian.Uint32(b[8*i:])), Rank: int32(binary.LittleEndian.Uint32(b[8*i+4:]))}
			switch {
			case e.Node < 0 || uint64(e.Node) >= n:
				return nil, fmt.Errorf("ridx: list for %d holds node %d out of range: %w", v, e.Node, ErrFormat)
			case e.Rank < 1:
				return nil, fmt.Errorf("ridx: list for %d holds rank %d: %w", v, e.Rank, ErrFormat)
			case i > 0 && compareEntries(list[i-1], e) >= 0:
				return nil, fmt.Errorf("ridx: list for %d is not ascending by (rank, node): %w", v, ErrFormat)
			case seen[e.Node] == int32(v)+1:
				return nil, fmt.Errorf("ridx: list for %d repeats node %d: %w", v, e.Node, ErrFormat)
			}
			seen[e.Node] = int32(v) + 1
			list[i] = e
		}
		ix.rrd[v] = list
		total += uint64(ln)
	}
	if total != entries {
		return nil, fmt.Errorf("ridx: header claims %d entries, lists hold %d: %w", entries, total, ErrFormat)
	}
	return ix, nil
}

// decoder reads the sections of an encoded index through one buffer.
type decoder struct {
	r   io.Reader
	buf []byte
}

// next returns the next n bytes of input, valid until the following call.
// The buffer grows chunk by chunk as the bytes arrive, so a corrupt count
// fails at the end of the input instead of allocating up front.
func (d *decoder) next(n int) ([]byte, error) {
	d.buf = d.buf[:0]
	for len(d.buf) < n {
		c := min(n-len(d.buf), readChunk)
		d.buf = slices.Grow(d.buf, c)[:len(d.buf)+c]
		if _, err := io.ReadFull(d.r, d.buf[len(d.buf)-c:]); err != nil {
			return nil, err
		}
	}
	return d.buf, nil
}

// int32s reads n little-endian int32 values.
func (d *decoder) int32s(n int) ([]int32, error) {
	b, err := d.next(4 * n)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// readErr reports a failed read; running out of input means the file is
// truncated, which is an ErrFormat.
func readErr(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("ridx: reading %s: %w (%w)", what, io.ErrUnexpectedEOF, ErrFormat)
	}
	return fmt.Errorf("ridx: reading %s: %w", what, err)
}

// ReadSharded deserializes an index written by Write into a ShardedIndex
// safe for concurrent use.
func ReadSharded(r io.Reader) (*ShardedIndex, error) {
	ix, err := Read(r)
	if err != nil {
		return nil, err
	}
	return ix.Sharded(), nil
}
