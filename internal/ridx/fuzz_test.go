package ridx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/hub"
)

// rkix1Files returns the committed RKIX1 files. They were written by the
// encoder that issued one binary.Write per entry, so decoding and
// re-encoding them pins the on-disk format.
func rkix1Files(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "rkix1", "*.rki"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no RKIX1 seed files: %v", err)
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

// TestIndexFormatCompat: committed files decode, and re-encode byte for
// byte, both from the decoded snapshot and from the index made of it.
func TestIndexFormatCompat(t *testing.T) {
	for name, data := range rkix1Files(t) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var fromSnap, fromIndex bytes.Buffer
		if err := snap.Write(&fromSnap); err != nil {
			t.Fatal(err)
		}
		if err := snap.Sharded().Write(&fromIndex); err != nil {
			t.Fatal(err)
		}
		for _, back := range [][]byte{fromSnap.Bytes(), fromIndex.Bytes()} {
			if !bytes.Equal(back, data) {
				t.Errorf("%s: re-encoding changed the bytes", name)
			}
		}
	}
}

// encodedIndex returns the RKIX1 bytes of a 200-node dblp-like index (20
// degree hubs, M = 40, K = 10), and the offset of its first non-empty
// list's length word.
func encodedIndex(t *testing.T) (data []byte, firstList int) {
	t.Helper()
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 200, AttachPerNode: 4, Seed: 3})
	ix, err := Build(g, BuildParams{Hubs: hub.Select(g, hub.DegreeFirst, 20, hub.Options{}), M: 40, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data = buf.Bytes()
	// Past the magic, the header, the hubs and the Check bounds, each
	// empty list is a zero length word.
	firstList = len(indexMagic) + 4*8 + 4*len(ix.Hubs()) + 4*ix.N()
	for binary.LittleEndian.Uint32(data[firstList:]) == 0 {
		firstList += 4
	}
	return data, firstList
}

// TestReadRejectsOutOfRangeEntry: an entry naming node 205 of a 200-node
// index is refused. Accepted, it sent the Indexed engine past the end of
// its per-node arrays on the first query that read the list.
func TestReadRejectsOutOfRangeEntry(t *testing.T) {
	data, at := encodedIndex(t)
	binary.LittleEndian.PutUint32(data[at+4:], 205)
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
}

// TestReadRejectsMalformedLists: each dictionary invariant the engines
// rely on is checked on load.
func TestReadRejectsMalformedLists(t *testing.T) {
	valid, at := encodedIndex(t)
	put := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
	entry := at + 4 // the first list's first (node, rank) pair
	cases := map[string]func(b []byte){
		"negative node": func(b []byte) { put(b, entry, math.MaxUint32) },
		"rank zero":     func(b []byte) { put(b, entry+4, 0) },
		"descending": func(b []byte) {
			// Swap the first two entries (the list has at least two).
			first, second := append([]byte(nil), b[entry:entry+8]...), b[entry+8:entry+16]
			copy(b[entry:], second)
			copy(b[entry+8:], first)
		},
		"repeated node": func(b []byte) {
			// The second entry names the first's node at a worse rank.
			put(b, entry+8, binary.LittleEndian.Uint32(b[entry:]))
			put(b, entry+12, binary.LittleEndian.Uint32(b[entry+4:])+1)
		},
		"entry count": func(b []byte) { put(b, len(indexMagic)+3*8, binary.LittleEndian.Uint32(b[len(indexMagic)+3*8:])+1) },
		"hub range":   func(b []byte) { put(b, len(indexMagic)+4*8, 200) },
		"longer than K": func(b []byte) {
			put(b, at, 11)
		},
	}
	if n := binary.LittleEndian.Uint32(valid[at:]); n < 2 {
		t.Fatalf("first list holds %d entries, need 2", n)
	}
	for name, corrupt := range cases {
		b := append([]byte(nil), valid...)
		corrupt(b)
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: got %v, want ErrFormat", name, err)
		}
	}
}

// TestReadHugeListAllocatesByInput: a header K of MaxInt32 and a list
// length word to match ask for 16 GiB; the decoder allocates only what
// the input holds before failing on the truncated list.
func TestReadHugeListAllocatesByInput(t *testing.T) {
	data, at := encodedIndex(t)
	binary.LittleEndian.PutUint64(data[len(indexMagic):], math.MaxInt32)
	binary.LittleEndian.PutUint32(data[at:], math.MaxInt32)
	var err error
	used := allocated(func() { _, err = Read(bytes.NewReader(data)) })
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
	if budget := allocBudget(len(data)); used > budget {
		t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), used, budget)
	}
}

// allocated returns the heap bytes allocated while decode ran. It reads
// runtime/metrics, not runtime.ReadMemStats, which stops the world: the
// fuzzer's minimizer re-runs an input up to len² times, and at tens of
// microseconds per stop it could spend a whole fuzz budget on one input.
// Small objects are counted a span at a time, well inside the budget's
// fixed part; the allocations the budget exists to catch are large.
func allocated(decode func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	decode()
	metrics.Read(s)
	return s[0].Value.Uint64() - before
}

// allocBudget is what decoding inputLen bytes may allocate: fixed read
// buffers plus a multiple of the input length (a list of n entries takes
// twice its bytes in memory, and the per-node tables several times the
// 4 bytes per node the Check bounds occupy).
func allocBudget(inputLen int) uint64 {
	return 1<<20 + 64*uint64(inputLen)
}

// FuzzReadIndex: the decoder either fails with an error wrapping
// ErrFormat or returns an index whose encoding reproduces the bytes it
// consumed. It never panics and never allocates past allocBudget.
func FuzzReadIndex(f *testing.F) {
	for _, data := range rkix1Files(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ix *Snapshot
		var err error
		used := allocated(func() { ix, err = Read(bytes.NewReader(data)) })
		if budget := allocBudget(len(data)); used > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), used, budget)
		}
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := ix.Write(&buf); err != nil {
			t.Fatal(err)
		}
		// The decoder stops at the end of the index; trailing bytes are
		// not its to judge.
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("re-encoding does not reproduce the input")
		}
	})
}

// deltaRecord is the fuzz encoding of one Delta: the op byte, then V, U
// and R as little-endian int32.
const deltaRecord = 13

func encodeDeltas(ds ...Delta) []byte {
	out := make([]byte, 0, deltaRecord*len(ds))
	for _, d := range ds {
		out = append(out, d.Op)
		for _, x := range []int32{d.V, d.U, d.R} {
			out = binary.LittleEndian.AppendUint32(out, uint32(x))
		}
	}
	return out
}

func decodeDeltas(data []byte) []Delta {
	ds := make([]Delta, len(data)/deltaRecord)
	for i := range ds {
		b := data[i*deltaRecord:]
		word := func(j int) int32 { return int32(binary.LittleEndian.Uint32(b[1+4*j:])) }
		ds[i] = Delta{Op: b[0], V: word(0), U: word(1), R: word(2)}
	}
	return ds
}

// fuzzFollower returns the 16-node, K = 4 index FuzzApplyDeltas feeds,
// holding a few facts so that offers shift and evict.
func fuzzFollower() *Replicated {
	r := NewReplicated(NewSharded(16, 4), 0)
	for u := int32(1); u <= 4; u++ {
		r.Offer(0, u, u)
	}
	r.RaiseCheck(1, 3)
	return r
}

func encoded(t *testing.T, ix Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkReplicationInput runs one Apply or Absorb call on r: it fails with
// ErrFormat and leaves r's encoding unchanged, or it succeeds and r's
// encoding survives Read → Write byte for byte.
func checkReplicationInput(t *testing.T, r *Replicated, run func() error) {
	t.Helper()
	before := encoded(t, r)
	if err := run(); err != nil {
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("untyped error: %v", err)
		}
		if !bytes.Equal(encoded(t, r), before) {
			t.Fatal("rejected input changed the index")
		}
		return
	}
	after := encoded(t, r)
	snap, err := Read(bytes.NewReader(after))
	if err != nil {
		t.Fatalf("the index's own encoding does not read back: %v", err)
	}
	var again bytes.Buffer
	if err := snap.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), after) {
		t.Fatal("Write → Read → Write changed the bytes")
	}
}

// FuzzApplyDeltas feeds arbitrary replication input to a fresh follower:
// the bytes as a delta list for Apply, and separately as an RKIX1 stream
// for Absorb. Neither may panic, and each either rejects the input with
// ErrFormat, changing nothing, or leaves an index that still encodes to
// bytes Read accepts.
func FuzzApplyDeltas(f *testing.F) {
	f.Add(encodeDeltas(Delta{Op: DeltaOffer, V: 0, U: 9, R: 1}, Delta{Op: DeltaOffer, V: 5, U: 2, R: 3}, Delta{Op: DeltaCheck, U: 9, R: 4}))
	for _, c := range badDeltas {
		f.Add(encodeDeltas(c.d))
	}
	for _, snap := range []*Snapshot{fuzzFollower().Inner().Snapshot(), twentyNodeSnapshot()} {
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzFollower()
		checkReplicationInput(t, r, func() error {
			_, err := r.Apply(decodeDeltas(data))
			return err
		})
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			return // FuzzReadIndex's ground
		}
		r = fuzzFollower()
		checkReplicationInput(t, r, func() error {
			_, err := r.Absorb(snap)
			return err
		})
	})
}
