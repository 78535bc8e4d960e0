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
// byte through both implementations.
func TestIndexFormatCompat(t *testing.T) {
	for name, data := range rkix1Files(t) {
		ix, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sh, err := ReadSharded(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, back := range []Index{ix, sh} {
			var buf bytes.Buffer
			if err := back.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
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
	if _, err := ReadSharded(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
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
		var ix *SerialIndex
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
