package ridx

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// feed drives n pseudo-random exact facts through an index the way
// query refinement would: offers, with an occasional check raise
// justified by prior offers (witness-before-bound order). A pair's rank
// is a function of the pair, as Rank(u, v) is: replicas converge only on
// exact facts, whatever order concurrent writers offer them in.
func feed(ix Index, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	nodes := int32(ix.N())
	for i := 0; i < n; i++ {
		v, u := rng.Int31n(nodes), rng.Int31n(nodes)
		ix.Offer(v, u, 1+(v*31+u*17)%50)
		if i%7 == 0 {
			ix.RaiseCheck(u, 1+rng.Int31n(20))
		}
	}
}

// stateEqual compares the full dictionary state of two indexes.
func stateEqual(t *testing.T, got, want Index) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N: %d vs %d", got.N(), want.N())
	}
	for u := int32(0); u < int32(want.N()); u++ {
		if g, w := got.Check(u), want.Check(u); g != w {
			t.Fatalf("Check(%d) = %d, want %d", u, g, w)
		}
	}
	for v := int32(0); v < int32(want.N()); v++ {
		g, w := got.Reverse(v, nil), want.Reverse(v, nil)
		if len(g) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("Reverse(%d) = %v, want %v", v, g, w)
		}
	}
}

// TestReplicatedSnapshotDeltaReplay is the tentpole correctness test:
// a follower bootstrapped from a leader's serialized snapshot and then
// fed the leader's deltas converges on exactly the leader's dictionary
// state, including updates that raced the snapshot.
func TestReplicatedSnapshotDeltaReplay(t *testing.T) {
	leader := NewReplicated(NewSharded(60, 8), 0)
	feed(leader, 400, 1)

	var buf bytes.Buffer
	seq, gen, err := leader.WriteSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 0 {
		t.Fatalf("immutable leader generation = %d, want 0", gen)
	}

	// Leader keeps learning after the snapshot was cut.
	feed(leader, 300, 2)

	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	follower := NewReplicated(snap.Sharded(), 0)

	// Drain in small batches to exercise the cursor arithmetic.
	cursor := seq
	preApply := follower.Seq()
	for {
		ds, next, ok := leader.DeltasSince(cursor, 17)
		if !ok {
			t.Fatalf("cursor %d fell off an un-truncated log", cursor)
		}
		if len(ds) == 0 {
			break
		}
		if _, err := follower.Apply(ds); err != nil {
			t.Fatal(err)
		}
		cursor = next
	}
	stateEqual(t, follower, leader)
	if follower.Seq() == preApply {
		t.Fatal("Apply did not re-log any delta; the follower could not lead further replicas")
	}

	// Chained replication: a third replica bootstrapped from the
	// FOLLOWER's snapshot + deltas also converges on the leader's state.
	var buf2 bytes.Buffer
	seq2, _, err := follower.WriteSnapshot(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := Read(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	third := NewReplicated(snap2.Sharded(), 0)
	ds, _, ok := follower.DeltasSince(seq2, 0)
	if !ok {
		t.Fatalf("follower log unreadable from its own snapshot cursor %d", seq2)
	}
	if _, err := third.Apply(ds); err != nil {
		t.Fatal(err)
	}
	stateEqual(t, third, leader)
}

// TestDeltasSinceTruncation: a cursor older than the bounded log's base
// reports ok=false (snapshot required); the tail stays readable.
func TestDeltasSinceTruncation(t *testing.T) {
	r := NewReplicated(NewSharded(30, 4), 8)
	for i := int32(0); i < 20; i++ {
		r.Offer(i%30, (i+1)%30, i+1)
	}
	if _, next, ok := r.DeltasSince(0, 0); ok {
		t.Fatal("cursor 0 should have fallen off a cap-8 log")
	} else if next != r.Seq() {
		t.Fatalf("truncation next = %d, want Seq %d", next, r.Seq())
	}
	if ds, next, ok := r.DeltasSince(r.Seq(), 0); !ok || len(ds) != 0 || next != r.Seq() {
		t.Fatalf("caught-up cursor: ds=%v next=%d ok=%v", ds, next, ok)
	}
}

// TestInvalidateResetsLog: invalidation discards the log and bumps the
// generation — the two signals a follower uses to fall back to a fresh
// snapshot instead of replaying deltas of a discarded answer set.
func TestInvalidateResetsLog(t *testing.T) {
	r := NewReplicated(NewSharded(30, 4), 0)
	feed(r, 50, 3)
	old := uint64(0)
	gen := r.Generation()

	r.Invalidate()
	if r.Generation() != gen+1 {
		t.Fatalf("generation = %d, want %d", r.Generation(), gen+1)
	}
	if _, _, ok := r.DeltasSince(old, 0); ok {
		t.Fatal("pre-invalidate cursor must require a snapshot")
	}
	if r.Entries() != 0 {
		t.Fatalf("invalidated index still holds %d entries", r.Entries())
	}
	// A fully caught-up cursor stays readable (empty); the generation
	// change is what tells that follower to re-sync.
	if ds, _, ok := r.DeltasSince(r.Seq(), 0); !ok || len(ds) != 0 {
		t.Fatalf("caught-up cursor after reset: ds=%v ok=%v", ds, ok)
	}
}

// TestAbsorbIdempotent: absorbing the same snapshot twice changes
// nothing the second time.
func TestAbsorbIdempotent(t *testing.T) {
	leader := NewReplicated(NewSharded(40, 6), 0)
	feed(leader, 200, 4)
	snap, _, _ := leader.SnapshotState()

	follower := NewReplicated(NewSharded(40, 6), 0)
	if n, err := follower.Absorb(snap); err != nil || n == 0 {
		t.Fatalf("first absorb applied %d updates: %v", n, err)
	}
	stateEqual(t, follower, leader)
	if n, err := follower.Absorb(snap); err != nil || n != 0 {
		t.Fatalf("second absorb applied %d updates, want 0: %v", n, err)
	}
	stateEqual(t, follower, leader)
}

// TestRaiseGenerationMonotone: RaiseGeneration only moves forward.
func TestRaiseGenerationMonotone(t *testing.T) {
	r := NewReplicated(NewSharded(10, 4), 0)
	r.RaiseGeneration(5)
	if g := r.Generation(); g != 5 {
		t.Fatalf("generation = %d, want 5", g)
	}
	r.RaiseGeneration(3)
	if g := r.Generation(); g != 5 {
		t.Fatalf("generation regressed to %d", g)
	}
}

// TestReplicatedConcurrent hammers a leader with concurrent refinement
// while a follower streams snapshots and deltas off it (-race target);
// after a final drain the follower state must equal the leader's.
func TestReplicatedConcurrent(t *testing.T) {
	leader := NewReplicated(NewSharded(50, 8), 0)
	follower := NewReplicated(NewSharded(50, 8), 0)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			feed(leader, 300, seed)
		}(int64(w + 10))
	}

	// Concurrent reader: bootstrap mid-write, then stream deltas.
	wg.Add(1)
	var cursor uint64
	go func() {
		defer wg.Done()
		snap, seq, _ := leader.SnapshotState()
		if _, err := follower.Absorb(snap); err != nil {
			t.Error(err)
		}
		cursor = seq
		for i := 0; i < 50; i++ {
			ds, next, ok := leader.DeltasSince(cursor, 64)
			if !ok {
				snap, seq, _ := leader.SnapshotState()
				if _, err := follower.Absorb(snap); err != nil {
					t.Error(err)
				}
				cursor = seq
				continue
			}
			if _, err := follower.Apply(ds); err != nil {
				t.Error(err)
			}
			cursor = next
		}
	}()
	wg.Wait()

	// Writers are done: one final drain reaches the fixed point.
	for {
		ds, next, ok := leader.DeltasSince(cursor, 0)
		if !ok {
			t.Fatal("final cursor fell off the log")
		}
		if len(ds) == 0 {
			break
		}
		if _, err := follower.Apply(ds); err != nil {
			t.Fatal(err)
		}
		cursor = next
	}
	stateEqual(t, follower, leader)
}

// badDeltas do not fit a 10-node index. Applied unchecked, the first two
// panicked with an index out of range, and the offers from node -1 and of
// rank 0 were stored, after which the index's own Write no longer read
// back.
var badDeltas = []struct {
	name string
	d    Delta
}{
	{"offer to node 1000", Delta{Op: DeltaOffer, V: 1000, U: 1, R: 1}},
	{"check of node 1000", Delta{Op: DeltaCheck, U: 1000, R: 3}},
	{"offer from node -1", Delta{Op: DeltaOffer, V: 2, U: -1, R: 1}},
	{"offer of rank 0", Delta{Op: DeltaOffer, V: 2, U: 1, R: 0}},
	{"unknown op", Delta{Op: 9, V: 2, U: 1, R: 1}},
}

// twentyNodeSnapshot is a snapshot a 10-node index cannot absorb;
// absorbed unchecked, it panicked with an index out of range.
func twentyNodeSnapshot() *Snapshot {
	ix := NewSharded(20, 4)
	ix.Offer(15, 3, 1)
	ix.RaiseCheck(19, 2)
	return ix.Snapshot()
}

// TestReplicationRejectsBadInput: Apply and Absorb check their whole input
// first; one bad update fails the call with ErrFormat and nothing, not
// even the valid update before it in the batch, is applied or logged.
func TestReplicationRejectsBadInput(t *testing.T) {
	run := func(name string, call func(r *Replicated) error) {
		t.Run(name, func(t *testing.T) {
			r := NewReplicated(NewSharded(10, 4), 0)
			r.Offer(0, 1, 1)
			r.RaiseCheck(1, 2)
			var before bytes.Buffer
			if err := r.Write(&before); err != nil {
				t.Fatal(err)
			}
			seq := r.Seq()
			if err := call(r); !errors.Is(err, ErrFormat) {
				t.Fatalf("got %v, want ErrFormat", err)
			}
			var after bytes.Buffer
			if err := r.Write(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) || r.Seq() != seq {
				t.Fatal("a rejected update changed the index or its log")
			}
		})
	}
	for _, c := range badDeltas {
		run(c.name, func(r *Replicated) error {
			_, err := r.Apply([]Delta{{Op: DeltaOffer, V: 3, U: 4, R: 2}, c.d})
			return err
		})
	}
	run("20-node snapshot", func(r *Replicated) error {
		_, err := r.Absorb(twentyNodeSnapshot())
		return err
	})
}

// TestApplyIgnoresCheckV: a check delta's V is unused, so no value of it
// fails the batch.
func TestApplyIgnoresCheckV(t *testing.T) {
	r := NewReplicated(NewSharded(10, 4), 0)
	applied, err := r.Apply([]Delta{{Op: DeltaCheck, V: 1000, U: 2, R: 3}, {Op: DeltaCheck, V: -1, U: 3, R: 4}})
	if err != nil || applied != 2 || r.Check(2) != 3 || r.Check(3) != 4 {
		t.Fatalf("applied %d, err %v, checks %d %d; want 2, nil, 3 4", applied, err, r.Check(2), r.Check(3))
	}
}
