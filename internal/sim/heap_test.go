package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventQueueTieBreakProperty is the invariant the engine's cross-shard
// merge relies on: among equal-timestamp events, the heap pops
// in ascending sequence-number order — i.e. deterministic insertion order,
// regardless of heap shape. The test drives randomized workloads with heavy
// timestamp collisions and interleaved pushes/pops against a stable-sort
// reference.
func TestEventQueueTieBreakProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x4EAB))
	for trial := 0; trial < 200; trial++ {
		// Few distinct timestamps over many events forces long tie runs.
		nEvents := 1 + rng.Intn(500)
		nStamps := 1 + rng.Intn(8)
		var q eventQueue
		var ref []event
		var seq uint64
		pushOne := func() {
			seq++
			e := event{at: int64(rng.Intn(nStamps)), seq: seq}
			q.push(e)
			ref = append(ref, e)
		}
		var popped []event
		for i := 0; i < nEvents; i++ {
			pushOne()
			// Occasionally pop mid-stream so the heap is exercised in
			// mixed push/pop shapes, not just bulk-load-then-drain.
			if rng.Intn(4) == 0 && q.Len() > 0 {
				popped = append(popped, q.pop())
			}
		}
		for q.Len() > 0 {
			popped = append(popped, q.pop())
		}

		// Reference order: stable sort by timestamp only. Stability keeps
		// equal timestamps in insertion order, which must equal ascending
		// seq — the engines assign seq in insertion order.
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })

		if len(popped) != len(ref) {
			t.Fatalf("trial %d: popped %d events, pushed %d", trial, len(popped), len(ref))
		}
		for i := range ref {
			// Interleaved pops cut the stream into drain segments; full
			// global order only holds for the final drain, so check the
			// local invariant instead: within every maximal run of equal
			// timestamps in the popped stream, seq strictly ascends.
			if i > 0 && popped[i].at == popped[i-1].at && popped[i].seq <= popped[i-1].seq {
				t.Fatalf("trial %d: pop %d: equal-timestamp events out of insertion order: seq %d after %d (at=%d)",
					trial, i, popped[i].seq, popped[i-1].seq, popped[i].at)
			}
		}
	}
}

// TestEventQueueDrainOrder is the bulk-load variant with a full total-order
// check: push a shuffled multiset with heavy collisions, drain completely,
// and require exactly the stable-sorted reference sequence.
func TestEventQueueDrainOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(0x15C4))
	for trial := 0; trial < 100; trial++ {
		nEvents := 1 + rng.Intn(1000)
		nStamps := 1 + rng.Intn(6)
		var q eventQueue
		ref := make([]event, nEvents)
		for i := range ref {
			ref[i] = event{at: int64(rng.Intn(nStamps)), seq: uint64(i + 1)}
			q.push(ref[i])
		}
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })
		for i, want := range ref {
			got := q.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d: pop %d: got (at=%d seq=%d), want (at=%d seq=%d)",
					trial, i, got.at, got.seq, want.at, want.seq)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: %d events left after drain", trial, q.Len())
		}
	}
}
