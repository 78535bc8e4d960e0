package hub

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"testing"

	"rkranks/internal/gen"
)

// rkhlFiles returns the committed RKHL files. They were written by the
// build that sorted its slabs serially, so decoding and re-encoding them
// pins the on-disk format.
func rkhlFiles(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "rkhl", "*.rkhl"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no RKHL seed files: %v", err)
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

// TestLabelFormatCompat: committed files decode, and re-encode byte for
// byte.
func TestLabelFormatCompat(t *testing.T) {
	for name, data := range rkhlFiles(t) {
		l, err := ReadLabels(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := l.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Errorf("%s: re-encoding changed the bytes", name)
		}
	}
}

// encodeCorrupted builds a labeling of a 300-node dblp-like graph with 60
// degree roots, lets corrupt alter its slabs, and returns the encoding.
func encodeCorrupted(t *testing.T, corrupt func(l *Labels)) []byte {
	t.Helper()
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 300, AttachPerNode: 3, Seed: 3})
	l, err := BuildLabels(g, Order(g, DegreeFirst, 60, Options{}), 0)
	if err != nil {
		t.Fatal(err)
	}
	corrupt(l)
	var buf bytes.Buffer
	if err := l.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadLabelsRejectsReversedInvertedLists: inverted lists stored in
// descending order are refused. Accepted, they broke the HubLabel
// engine's one-probe bound, which counts a list's whole prefix below a
// distance as that many closer nodes, and some answers differed from
// Dynamic's.
func TestReadLabelsRejectsReversedInvertedLists(t *testing.T) {
	data := encodeCorrupted(t, func(l *Labels) {
		for j := 0; j < l.HubCount(); j++ {
			lo, hi := l.invOff[j], l.invOff[j+1]
			slices.Reverse(l.invNode[lo:hi])
			slices.Reverse(l.invDist[lo:hi])
		}
	})
	if _, err := ReadLabels(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
}

// TestReadLabelsRejectsMalformedSpans: each order and distance invariant
// the engine's scans rely on is checked on load.
func TestReadLabelsRejectsMalformedSpans(t *testing.T) {
	// longest returns the start of the longest span of off.
	longest := func(off []int32) int32 {
		best := 0
		for i := 1; i+1 < len(off); i++ {
			if off[i+1]-off[i] > off[best+1]-off[best] {
				best = i
			}
		}
		return off[best]
	}
	cases := map[string]func(l *Labels){
		"label out of order": func(l *Labels) {
			at := longest(l.outOff)
			l.outHub[at], l.outHub[at+1] = l.outHub[at+1], l.outHub[at]
			l.outDist[at], l.outDist[at+1] = l.outDist[at+1], l.outDist[at]
		},
		"negative label distance": func(l *Labels) { l.outDist[longest(l.outOff)] = -1 },
		"NaN label distance":      func(l *Labels) { l.outDist[longest(l.outOff)+1] = math.NaN() },
		"infinite list distance":  func(l *Labels) { l.invDist[l.invOff[1]-1] = math.Inf(1) },
		"repeated list node": func(l *Labels) {
			// The second entry names the first's node, farther away.
			at := longest(l.invOff)
			l.invNode[at+1] = l.invNode[at]
			l.invDist[at+1] = math.Nextafter(l.invDist[at], math.Inf(1))
		},
	}
	for name, corrupt := range cases {
		data := encodeCorrupted(t, corrupt)
		if _, err := ReadLabels(bytes.NewReader(data)); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: got %v, want ErrFormat", name, err)
		}
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

// allocBudget is what decoding inputLen bytes may allocate: the fixed
// read buffers of the eleven slabs, plus a multiple of the input length
// (slabs grow by doubling as their bytes arrive).
func allocBudget(inputLen int) uint64 {
	return 2<<20 + 64*uint64(inputLen)
}

// FuzzReadLabels: the decoder either fails with an error wrapping
// ErrFormat or returns a labeling whose encoding reproduces the bytes it
// consumed. It never panics and never allocates past allocBudget.
func FuzzReadLabels(f *testing.F) {
	for _, data := range rkhlFiles(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var l *Labels
		var err error
		used := allocated(func() { l, err = ReadLabels(bytes.NewReader(data)) })
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
		if err := l.Write(&buf); err != nil {
			t.Fatal(err)
		}
		// The decoder stops at the end of the labeling; trailing bytes
		// are not its to judge.
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("re-encoding does not reproduce the input")
		}
	})
}
