package ridx

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"rkranks/internal/gen"
	"rkranks/internal/hub"
	"rkranks/internal/rank"
	tg "rkranks/internal/testgraphs"
)

// assertSameIndex fails unless both indexes hold identical dictionaries.
func assertSameIndex(t *testing.T, got, want Index) {
	t.Helper()
	if got.N() != want.N() || got.MaxK() != want.MaxK() || got.Entries() != want.Entries() {
		t.Fatalf("shape: n=%d/%d K=%d/%d entries=%d/%d",
			got.N(), want.N(), got.MaxK(), want.MaxK(), got.Entries(), want.Entries())
	}
	for v := int32(0); int(v) < want.N(); v++ {
		if got.Check(v) != want.Check(v) {
			t.Fatalf("check[%d] = %d, want %d", v, got.Check(v), want.Check(v))
		}
		a, b := got.Reverse(v, nil), want.Reverse(v, nil)
		if len(a) != len(b) {
			t.Fatalf("rrd[%d] size %d, want %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rrd[%d][%d] = %v, want %v", v, i, a[i], b[i])
			}
		}
	}
}

// TestBuildShardedEquivalence: parallel construction, with the default
// worker count among others, must match serial construction (Offer
// commutes).
func TestBuildShardedEquivalence(t *testing.T) {
	g := gen.DBLPLike(gen.DBLPLikeParams{Nodes: 400, AttachPerNode: 4, Seed: 3})
	params := BuildParams{
		Hubs: hub.Select(g, hub.DegreeFirst, 40, hub.Options{}),
		M:    80,
		K:    8,
	}
	want, err := Build(g, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 8} {
		got, err := BuildSharded(g, params, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertSameIndex(t, got, want)
	}
}

func TestBuildShardedValidation(t *testing.T) {
	g := gen.GNM(10, 20, false, 1)
	if _, err := BuildSharded(g, BuildParams{Hubs: []int32{0}, M: 0, K: 1}, 2); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := BuildSharded(g, BuildParams{Hubs: []int32{0}, M: 1, K: 0}, 2); err == nil {
		t.Error("K=0 accepted")
	}
	ix, err := BuildSharded(g, BuildParams{Hubs: nil, M: 1, K: 1}, 4)
	if err != nil || ix.Entries() != 0 {
		t.Errorf("empty hub set: %v, %v", ix, err)
	}
}

func TestNewShardedPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSharded(maxK=0) did not panic")
		}
	}()
	NewSharded(3, 0)
}

// TestShardedRoundTrip: an index, its Snapshot().Sharded() copy and its
// Write → Read → Sharded reload hold the same dictionaries.
func TestShardedRoundTrip(t *testing.T) {
	g := tg.Toy()
	built, err := Build(g, BuildParams{Hubs: []int32{tg.Bob, tg.Eric, tg.Sid}, M: 4, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	cp := built.Snapshot().Sharded()
	assertSameIndex(t, cp, built)

	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, snap.Sharded(), built)
}

// TestShardedSnapshotIsolated: a snapshot is a deep copy. Writes to the
// live index (which edits full lists in place) must not reach it, and
// writes to an index made from it must not reach the original.
func TestShardedSnapshotIsolated(t *testing.T) {
	sh := NewSharded(4, 2)
	sh.Offer(1, 2, 5)
	sh.Offer(1, 3, 4)
	sh.RaiseCheck(2, 4)
	snap := sh.Snapshot()
	var before bytes.Buffer
	if err := snap.Write(&before); err != nil {
		t.Fatal(err)
	}
	// Node 1's list is full: this offer shifts it in place.
	sh.Offer(1, 0, 2)
	sh.RaiseCheck(2, 9)
	var after bytes.Buffer
	if err := snap.Write(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("live write leaked into the snapshot")
	}
	cp := snap.Sharded()
	cp.Offer(1, 1, 1)
	cp.RaiseCheck(3, 7)
	if r, ok := sh.LookupRank(1, 1); ok {
		t.Errorf("copy's write leaked into the live index: rank %d", r)
	}
	if sh.Check(3) != 0 {
		t.Error("copy's check raise leaked into the live index")
	}
	if r, ok := cp.LookupRank(1, 3); !ok || r != 4 {
		t.Errorf("live write disturbed the copy: LookupRank(1, 3) = %d, %v", r, ok)
	}
}

// checkList fails unless list is one a writer of
// TestShardedConcurrentMutation could have left for node v: at most maxK
// entries, ascending by (rank, node), no node twice, each rank as offered.
func checkList(t *testing.T, v int32, list []rank.Entry, maxK int) {
	t.Helper()
	if len(list) > maxK {
		t.Errorf("rrd[%d] has %d entries > K=%d", v, len(list), maxK)
	}
	seen := map[int32]bool{}
	for i, e := range list {
		if e.Rank != v%7+1 {
			t.Errorf("rrd[%d][%d] rank %d, want %d", v, i, e.Rank, v%7+1)
		}
		if seen[e.Node] {
			t.Errorf("rrd[%d] repeats node %d: %v", v, e.Node, list)
		}
		seen[e.Node] = true
		if i > 0 && compareEntries(list[i-1], e) >= 0 {
			t.Errorf("rrd[%d] not sorted at %d: %v, %v", v, i, list[i-1], e)
		}
	}
}

// TestShardedConcurrentMutation hammers one index from many goroutines
// mixing reads and writes; run under -race it fails if any read path
// skips the stripe lock. Every list a reader sees, mid-run or at the end,
// must hold only facts some writer offered, sorted and bounded by K, and
// a mid-run snapshot must encode to bytes Read accepts.
func TestShardedConcurrentMutation(t *testing.T) {
	const (
		n       = 64
		maxK    = 4
		writers = 8
		offers  = 400
	)
	ix := NewSharded(n, maxK)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint32(w*2654435761 + 1)
			var scratch []rank.Entry
			for i := 0; i < offers; i++ {
				rng = rng*1664525 + 1013904223
				v := int32(rng % n)
				u := int32(w) // one source node per writer: ranks stay exact
				r := int32(v%7 + 1)
				ix.Offer(v, u, r)
				ix.RaiseCheck(u, r)
				// Concurrent readers on the same stripe.
				if got, ok := ix.LookupRank(v, u); ok && got != r {
					t.Errorf("LookupRank(%d,%d) = %d, want %d", v, u, got, r)
				}
				scratch = ix.Reverse(v, scratch[:0])
				checkList(t, v, scratch, maxK)
				_ = ix.Check(u)
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := ix.Snapshot().Write(&buf); err != nil {
						t.Error(err)
					} else if _, err := Read(&buf); err != nil {
						t.Errorf("mid-run snapshot does not read back: %v", err)
					}
					_ = ix.Entries()
				}
			}
		}(w)
	}
	wg.Wait()
	for v := int32(0); v < n; v++ {
		checkList(t, v, ix.Reverse(v, nil), maxK)
	}
	if ix.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

// TestShardedReverseSnapshotStable: Reverse returns a copy, which stays
// intact while later offers shift and evict entries of the list in place.
func TestShardedReverseSnapshotStable(t *testing.T) {
	ix := NewSharded(2, 3)
	ix.Offer(0, 5, 2)
	ix.Offer(0, 6, 3)
	ix.Offer(0, 7, 4)
	snap := ix.Reverse(0, nil)
	saved := append([]rank.Entry(nil), snap...)
	ix.Offer(0, 4, 1) // shifts the full list, evicting (7, 4)
	ix.Offer(0, 3, 1) // and again, evicting (6, 3)
	for i := range saved {
		if snap[i] != saved[i] {
			t.Fatalf("held Reverse copy mutated at %d: %v != %v", i, snap[i], saved[i])
		}
	}
	want := []rank.Entry{{Node: 3, Rank: 1}, {Node: 4, Rank: 1}, {Node: 5, Rank: 2}}
	if got := ix.Reverse(0, nil); !slices.Equal(got, want) {
		t.Fatalf("list after evictions = %v, want %v", got, want)
	}
}
