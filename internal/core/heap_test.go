package core

import (
	"math/rand"
	"testing"

	"rkranks/internal/rank"
)

// TestResultHeapAgainstReference drives the heap with random offer streams
// and compares against sorting the whole stream.
func TestResultHeapAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(8)
		n := rng.Intn(40)
		var h resultHeap
		h.reset(k, 100)
		var all []rank.Entry
		seen := map[int32]bool{}
		for i := 0; i < n; i++ {
			node := int32(rng.Intn(100))
			if seen[node] {
				continue
			}
			seen[node] = true
			e := rank.Entry{Node: node, Rank: int32(1 + rng.Intn(10))}
			all = append(all, e)
			h.offer(e.Node, e.Rank)
		}
		rank.SortEntries(all)
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := h.sorted()
		if len(got) != len(want) {
			t.Fatalf("trial %d: size %d want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
		if len(all) >= k && len(want) > 0 && h.kRank() != want[len(want)-1].Rank {
			t.Fatalf("trial %d: kRank %d want %d", trial, h.kRank(), want[len(want)-1].Rank)
		}
	}
}
