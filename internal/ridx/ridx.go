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
// Build runs the hub searches one after another through Offer, the serial
// reference. BuildSharded runs them on worker goroutines, each into
// private per-node top-K lists, and merges the lists per node in parallel;
// its dictionaries are identical to Build's.
//
// # Implementations and concurrency
//
// ShardedIndex is the one implementation of Index: lock-striped
// dictionaries, one mutex per stripe guarding entry lists that Offer
// edits in place, and atomic Check bounds. It is safe for any mix of
// concurrent readers and writers, so one index can back a whole pool of
// indexed engines and keep learning from all of them at once; a single
// engine pays only uncontended locks. Snapshot is a plain copy of its
// state: the form Read decodes and Write encodes, and the one a follower
// absorbs.
//
// Dictionary updates commute: entries are exact (u, Rank(u, v)) facts kept
// best-maxK by (rank, node), and Check bounds only grow. Interleaving
// updates from concurrent queries therefore yields the same dictionaries
// as any serial ordering of those updates — the index accepts writes from
// many engines without coordination beyond its stripes.
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

// Index is the two-dictionary structure of Section 5.2. ShardedIndex
// implements it, and Replicated wraps one through it. All methods operate
// on exact facts (see the package docs) and are safe for concurrent use.
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
	// Reverse appends a copy of the stored reverse-rank list of v, ordered
	// by (rank, node), to dst and returns the extended slice. The copy
	// stays intact across later updates of v's list.
	Reverse(v int32, dst []rank.Entry) []rank.Entry
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
	// Write serializes the index in the format Read decodes.
	Write(w io.Writer) error
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

// Build precomputes an index serially: an M-step ranked SSSP from every
// hub (Section 5.2), each result offered through ShardedIndex.Offer. The
// per-hub cost is O(M log M + E*) where E* is the number of arcs incident
// to the M settled nodes. It is the reference BuildSharded must match.
func Build(g *graph.Graph, p BuildParams) (*ShardedIndex, error) {
	if err := checkParams(p); err != nil {
		return nil, err
	}
	ix := NewSharded(g.N(), p.K)
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

// sink receives a hub search's results: the index in Build, a worker's
// private lists in BuildSharded.
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

// Snapshot is a plain copy of an index's state: what Read decodes,
// ShardedIndex.Snapshot and Replicated.SnapshotState capture, and
// Replicated.Absorb consumes. It is not an Index; Sharded turns it into
// one.
type Snapshot struct {
	maxK  int
	hubs  []int32
	check []int32
	rrd   [][]rank.Entry
}

// N returns the number of nodes the snapshot covers.
func (s *Snapshot) N() int { return len(s.check) }

// Sharded turns the snapshot into a live index, taking ownership of its
// entry lists (the snapshot must not be used afterwards). The conversion
// is O(n) pointer moves, not a deep copy.
func (s *Snapshot) Sharded() *ShardedIndex {
	ix := NewSharded(len(s.check), s.maxK)
	ix.hubs = s.hubs
	copy(ix.check, s.check)
	copy(ix.rrd, s.rrd)
	s.rrd = nil
	return ix
}

const indexMagic = "RKIX1\n"

// ErrFormat is wrapped by every error Read returns for input that is not
// a well-formed index, and by Replicated.Apply and Absorb for updates
// that do not fit the index.
var ErrFormat = errors.New("ridx: malformed index")

// readChunk bounds how many bytes one read step allocates while a count
// from an untrusted header is still unconfirmed by the input.
const readChunk = 1 << 16

// Write serializes the snapshot. The format is the magic, a header of
// four uint64 (K, nodes, hubs, entries), the hubs and Check bounds as
// int32, then per node a uint32 length and that many (node, rank) int32
// pairs, all little-endian.
func (s *Snapshot) Write(w io.Writer) error {
	var entries int
	for _, l := range s.rrd {
		entries += len(l)
	}
	bw := bufio.NewWriter(w)
	// A bufio.Writer's first error sticks: Flush reports it, so the
	// writes below need no checks of their own.
	var buf [8]byte
	put := func(x uint64, size int) {
		binary.LittleEndian.PutUint64(buf[:], x)
		bw.Write(buf[:size])
	}
	bw.WriteString(indexMagic)
	for _, h := range []uint64{uint64(s.maxK), uint64(len(s.check)), uint64(len(s.hubs)), uint64(entries)} {
		put(h, 8)
	}
	for _, h := range s.hubs {
		put(uint64(uint32(h)), 4)
	}
	for _, c := range s.check {
		put(uint64(uint32(c)), 4)
	}
	for _, l := range s.rrd {
		put(uint64(len(l)), 4)
		for _, e := range l {
			put(uint64(uint32(e.Node)), 4)
			put(uint64(uint32(e.Rank)), 4)
		}
	}
	return bw.Flush()
}

// Read deserializes an index written by Write. Call Sharded on the result
// to serve it.
//
// Input that is not a well-formed index fails with an error wrapping
// ErrFormat: a truncated file, a header out of range, a hub or entry node
// outside [0, n), a rank below 1, a list longer than K, out of (rank,
// node) order or repeating a node, or an entry count that disagrees with
// the lists. Allocation grows with the bytes actually read, never with
// the counts a header claims.
func Read(r io.Reader) (*Snapshot, error) {
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
	snap := &Snapshot{maxK: int(maxK), hubs: hubs, check: check, rrd: make([][]rank.Entry, n)}
	seen := make([]int32, n) // seen[u] == v+1: u is already in v's list
	var total uint64
	for v := range snap.rrd {
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
		snap.rrd[v] = list
		total += uint64(ln)
	}
	if total != entries {
		return nil, fmt.Errorf("ridx: header claims %d entries, lists hold %d: %w", entries, total, ErrFormat)
	}
	return snap, nil
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
