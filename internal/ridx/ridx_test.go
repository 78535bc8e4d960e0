package ridx

import (
	"bytes"
	"strings"
	"testing"

	"rkranks/internal/rank"
	tg "rkranks/internal/testgraphs"
)

func TestOfferOrderingAndCap(t *testing.T) {
	ix := NewSharded(5, 3)
	v := int32(0)
	ix.Offer(v, 10, 5)
	ix.Offer(v, 11, 2)
	ix.Offer(v, 12, 8)
	ix.Offer(v, 13, 1) // evicts rank 8
	got := ix.Reverse(v, nil)
	want := []rank.Entry{{Node: 13, Rank: 1}, {Node: 11, Rank: 2}, {Node: 10, Rank: 5}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if ix.Offer(v, 99, 9) {
		t.Error("offer beyond full worse list accepted")
	}
}

func TestOfferDuplicateIgnored(t *testing.T) {
	ix := NewSharded(3, 2)
	if !ix.Offer(0, 7, 3) {
		t.Fatal("first offer rejected")
	}
	if ix.Offer(0, 7, 3) {
		t.Error("duplicate offer accepted")
	}
	if len(ix.Reverse(0, nil)) != 1 {
		t.Error("duplicate stored")
	}
}

func TestOfferTieBreaksByNode(t *testing.T) {
	ix := NewSharded(2, 2)
	ix.Offer(0, 9, 4)
	ix.Offer(0, 3, 4)
	got := ix.Reverse(0, nil)
	if got[0].Node != 3 || got[1].Node != 9 {
		t.Errorf("tie order: %v", got)
	}
}

func TestLookupRank(t *testing.T) {
	ix := NewSharded(2, 4)
	ix.Offer(1, 5, 2)
	if r, ok := ix.LookupRank(1, 5); !ok || r != 2 {
		t.Errorf("LookupRank = %d/%v", r, ok)
	}
	if _, ok := ix.LookupRank(1, 6); ok {
		t.Error("missing pair found")
	}
	if _, ok := ix.LookupRank(0, 5); ok {
		t.Error("wrong node found")
	}
}

func TestRaiseCheckMonotone(t *testing.T) {
	ix := NewSharded(2, 2)
	ix.RaiseCheck(0, 5)
	ix.RaiseCheck(0, 3) // lower: ignored
	if c := ix.Check(0); c != 5 {
		t.Errorf("Check = %d, want 5", c)
	}
	ix.RaiseCheck(0, 9)
	if c := ix.Check(0); c != 9 {
		t.Errorf("Check = %d, want 9", c)
	}
}

// TestBuildToyIndex mirrors the paper's Figure 3: hubs {Sid, Frank, Bob,
// Eric} with M=3, K=2. The Reverse Rank Dictionary contents match the
// paper; the Check Dictionary stores the tie-aware rank of the last settled
// node (see the package comment), which equals the paper's step count (3)
// except for Sid, whose 2nd and 3rd nearest (Bob, Caroline) tie at rank 2.
func TestBuildToyIndex(t *testing.T) {
	g := tg.Toy()
	hubs := []int32{tg.Sid, tg.Frank, tg.Bob, tg.Eric}
	ix, err := Build(g, BuildParams{Hubs: hubs, M: 3, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ix.MaxK() != 2 {
		t.Errorf("MaxK = %d", ix.MaxK())
	}
	if len(ix.Hubs()) != 4 {
		t.Errorf("Hubs = %v", ix.Hubs())
	}

	// Paper Figure 3, Reverse Rank Dictionary (top-2 per node). One entry
	// differs deliberately: under tie-aware ranks (Definition 1) Sid ranks
	// Caroline 2 — Bob and Caroline tie at distance 1.2 from Sid — while
	// the paper's step-count gives 3, so Sid (id 3) displaces Eric (id 4)
	// from Caroline's list on the (rank, node) tie-break.
	wantRRD := map[int32][]rank.Entry{
		tg.Alice:    {{Node: tg.Bob, Rank: 3}},
		tg.Bob:      {{Node: tg.Eric, Rank: 1}, {Node: tg.Sid, Rank: 2}},
		tg.Caroline: {{Node: tg.Bob, Rank: 2}, {Node: tg.Sid, Rank: 2}},
		tg.Eric:     {{Node: tg.Bob, Rank: 1}, {Node: tg.Sid, Rank: 1}},
		tg.Frank:    {{Node: tg.Eric, Rank: 3}},
		tg.George:   {{Node: tg.Frank, Rank: 1}},
	}
	for node, want := range wantRRD {
		got := ix.Reverse(node, nil)
		if len(got) != len(want) {
			t.Errorf("RRD[%s] = %v, want %v", tg.ToyNames[node], got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("RRD[%s][%d] = %v, want %v", tg.ToyNames[node], i, got[i], want[i])
			}
		}
	}

	// Check Dictionary: Frank, Bob, Eric searched 3 tie-free steps -> 3;
	// Sid's 3rd settled node (Caroline) ties Bob at rank 2 -> safe bound 2.
	wantCheck := map[int32]int32{tg.Sid: 2, tg.Frank: 3, tg.Bob: 3, tg.Eric: 3}
	for hub, want := range wantCheck {
		if got := ix.Check(hub); got != want {
			t.Errorf("Check[%s] = %d, want %d", tg.ToyNames[hub], got, want)
		}
	}
	if ix.Check(tg.Alice) != 0 {
		t.Error("non-hub has a check bound")
	}
}

func TestBuildSmallComponentExhausts(t *testing.T) {
	g := tg.Path(3) // from node 0 only 2 others exist
	ix, err := Build(g, BuildParams{Hubs: []int32{0}, M: 10, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Whole component settled: the check bound certifies "unreachable".
	if ix.Check(0) != int32(rank.Unreachable) {
		t.Errorf("exhausted check = %d", ix.Check(0))
	}
	if len(ix.Reverse(1, nil)) != 1 || ix.Reverse(1, nil)[0].Rank != 1 {
		t.Errorf("RRD[1] = %v", ix.Reverse(1, nil))
	}
}

func TestBuildParamsValidation(t *testing.T) {
	g := tg.Path(3)
	if _, err := Build(g, BuildParams{Hubs: []int32{0}, M: 0, K: 1}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := Build(g, BuildParams{Hubs: []int32{0}, M: 1, K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestEntriesAndSize(t *testing.T) {
	ix := NewSharded(4, 2)
	if ix.Entries() != 0 {
		t.Error("fresh index has entries")
	}
	ix.Offer(0, 1, 1)
	ix.Offer(2, 1, 3)
	if ix.Entries() != 2 {
		t.Errorf("Entries = %d", ix.Entries())
	}
	if ix.SizeBytes() <= 0 {
		t.Error("non-positive size")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	g := tg.Toy()
	ix, err := Build(g, BuildParams{Hubs: []int32{tg.Bob, tg.Eric}, M: 4, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix.RaiseCheck(tg.Alice, 2)
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := snap.Sharded()
	if got.MaxK() != ix.MaxK() || got.N() != ix.N() || got.Entries() != ix.Entries() {
		t.Fatalf("shape mismatch after round trip")
	}
	for v := int32(0); int(v) < ix.N(); v++ {
		if got.Check(v) != ix.Check(v) {
			t.Errorf("check[%d] %d vs %d", v, got.Check(v), ix.Check(v))
		}
		a, b := ix.Reverse(v, nil), got.Reverse(v, nil)
		if len(a) != len(b) {
			t.Fatalf("rrd[%d] length", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("rrd[%d][%d]: %v vs %v", v, i, a[i], b[i])
			}
		}
	}
}

// TestReadCorruptedNeverPanics mutates a valid serialized index byte by
// byte: every corruption must produce an error or a loadable index, never
// a panic or an absurd allocation.
func TestReadCorruptedNeverPanics(t *testing.T) {
	g := tg.Toy()
	ix, err := Build(g, BuildParams{Hubs: []int32{tg.Bob, tg.Eric, tg.Sid}, M: 4, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for pos := 0; pos < len(valid); pos++ {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= flip
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic mutating byte %d with %x: %v", pos, flip, r)
					}
				}()
				_, _ = Read(bytes.NewReader(mut))
			}()
		}
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("garbage")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}
