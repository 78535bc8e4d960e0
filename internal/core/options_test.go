package core

import (
	"testing"

	"rkranks/internal/gen"
	tg "rkranks/internal/testgraphs"
)

func TestParseAlgorithm(t *testing.T) {
	for name, want := range map[string]Algorithm{
		"naive": Naive, "static": Static, "dynamic": Dynamic, "indexed": Indexed,
		"hublabel": HubLabel,
	} {
		got, err := ParseAlgorithm(name)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("String() = %q, want %q", got.String(), name)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if Algorithm(77).String() == "" {
		t.Error("unknown algorithm empty String")
	}
}

func TestParseBounds(t *testing.T) {
	cases := map[string]Bounds{
		"parent": BoundParent,
		"count":  BoundParent | BoundCount,
		"height": BoundParent | BoundHeight,
		"three":  BoundsAll,
		"all":    BoundsAll,
	}
	for name, want := range cases {
		got, err := ParseBounds(name)
		if err != nil || got != want {
			t.Errorf("ParseBounds(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseBounds("nope"); err == nil {
		t.Error("bad bounds accepted")
	}
}

func TestBoundsString(t *testing.T) {
	cases := map[Bounds]string{
		BoundParent:               "parent",
		BoundParent | BoundCount:  "count",
		BoundParent | BoundHeight: "height",
		BoundsAll:                 "three",
		BoundHeight:               "height", // falls through the named cases? no: alone renders component list
	}
	// The named four:
	for b, want := range cases {
		if b == BoundHeight {
			continue
		}
		if got := b.String(); got != want {
			t.Errorf("%08b String = %q, want %q", b, got, want)
		}
	}
	if got := BoundHeight.String(); got != "height" {
		t.Errorf("BoundHeight alone = %q", got)
	}
	if got := Bounds(0).String(); got != "none" {
		t.Errorf("zero bounds = %q", got)
	}
	if got := (BoundHeight | BoundCount).String(); got != "height+count" {
		t.Errorf("combo = %q", got)
	}
}

func TestEffectiveBounds(t *testing.T) {
	und := tg.Toy()
	dir := tg.Cycle(4)

	o := Options{}
	if b := o.effectiveBounds(und); b != BoundsAll {
		t.Errorf("default undirected = %v", b)
	}
	if b := o.effectiveBounds(dir); b&BoundCount != 0 {
		t.Error("count bound survived a directed graph")
	}
	if b := o.effectiveBounds(dir); b&(BoundParent|BoundHeight) != BoundParent|BoundHeight {
		t.Error("directed graph lost parent/height")
	}

	counted := make([]bool, und.N())
	bi := Options{Counted: counted}
	b := bi.effectiveBounds(und)
	if b&BoundCount != 0 || b&BoundHeight != 0 {
		t.Errorf("bichromatic kept unsound bounds: %v", b)
	}
	if b&BoundParent == 0 {
		t.Error("bichromatic lost the parent bound")
	}

	cand := make([]bool, und.N())
	biC := Options{Candidates: cand}
	if b := biC.effectiveBounds(und); b&BoundCount == 0 {
		t.Error("count is sound when all nodes are counted, whatever the candidate mask")
	}
	if b := biC.effectiveBounds(und); b&BoundHeight == 0 {
		t.Error("height is sound when all nodes are counted")
	}

	explicit := Options{Bounds: BoundParent}
	if b := explicit.effectiveBounds(und); b != BoundParent {
		t.Errorf("explicit bounds overridden: %v", b)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Refinements: 1, RefineSettled: 10, TreeSettled: 2, PrunedByBound: 3,
		IndexHits: 4, SeededFromIndex: 5, HeightWins: 6, CountWins: 7, ParentWins: 8, RefineAborted: 9}
	b := a
	a.Add(b)
	if a.Refinements != 2 || a.RefineSettled != 20 || a.TreeSettled != 4 ||
		a.PrunedByBound != 6 || a.IndexHits != 8 || a.SeededFromIndex != 10 ||
		a.HeightWins != 12 || a.CountWins != 14 || a.ParentWins != 16 || a.RefineAborted != 18 {
		t.Errorf("Add result: %+v", a)
	}
}

func TestNewEnginePanicsOnBadClassLengths(t *testing.T) {
	g := tg.Toy()
	defer func() {
		if recover() == nil {
			t.Error("short Candidates accepted")
		}
	}()
	NewEngine(g, Options{Candidates: make([]bool, 3)})
}

func TestSetIndexPanicsOnSizeMismatch(t *testing.T) {
	g := tg.Toy()
	other := gen.GNM(20, 30, false, 1)
	e := NewEngine(g, Options{})
	ixGraph := other
	_ = ixGraph
	defer func() {
		if recover() == nil {
			t.Error("mismatched index accepted")
		}
	}()
	// Build a tiny index over the wrong node count.
	e.SetIndex(mustIndex(t, other))
}
