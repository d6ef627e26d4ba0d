package sim

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// TestEventLayout pins the event at 32 bytes, with its destination's slot
// and its flags in the low bits of seq: a flagged event for any slot keeps
// its place in the (at, seq) order.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Errorf("event is %d bytes, want 32", got)
	}
	plain := event{at: 5, seq: 7 << seqShift}
	flagged := event{at: 5, seq: 7<<seqShift | noSlot<<evFlagBits | evNet | evServed}
	next := event{at: 5, seq: 8 << seqShift}
	if s := flagged.slot(); s != noSlot {
		t.Errorf("slot %d, want noSlot", s)
	}
	if !plain.before(&next) || !flagged.before(&next) || next.before(&flagged) {
		t.Error("flags moved an event across the next sequence number")
	}
}

// TestEventQueueTieBreakProperty is the invariant the engine's delivery
// order relies on: among equal-timestamp events, the heap pops
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
			q.push(e, laneHeap)
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
		// seq — the engine assigns seq in insertion order.
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
			q.push(ref[i], laneHeap)
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

// checkQueueOps decodes data into a sequence of pushes and pops and checks
// the queue against a model (the pending multiset, scanned linearly): every
// pop returns the pending event that is smallest by (at, seq), Len tracks
// the model's size, and the final drain comes out in sorted order.
//
// Three bytes make one operation. b0 % 5 picks a lane push (0–2), a heap
// push (3) or a pop (4); b1 % 16 is the timestamp, so any lane sees
// decreasing and equal timestamps as well as ascending ones; b2 leads the
// sequence number, so sequence order is arbitrary too (as a queued-service
// re-queue makes it) while the push index below it keeps (at, seq) unique.
// Every other operation first tries the engine's inlined fast paths,
// pushFirst and popOnly, as Send and Run do.
func checkQueueOps(t *testing.T, data []byte) {
	t.Helper()
	fast := func(op int) bool { return op/3%2 == 0 }
	var q eventQueue
	var pending []event
	popMin := func(op int) {
		min := 0
		for i := range pending {
			if pending[i].before(&pending[min]) {
				min = i
			}
		}
		want := pending[min]
		pending[min] = pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if head := *q.peek(); head.at != want.at || head.seq != want.seq {
			t.Fatalf("op %d: peek (at=%d seq=%#x), want (at=%d seq=%#x)", op, head.at, head.seq, want.at, want.seq)
		}
		got, ok := event{}, false
		if fast(op) {
			got, ok = q.popOnly()
			if ok != (len(pending) == 0) {
				t.Fatalf("op %d: popOnly ok=%v with %d events left", op, ok, len(pending))
			}
		}
		if !ok {
			got = q.pop()
		}
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("op %d: pop (at=%d seq=%#x), want (at=%d seq=%#x)", op, got.at, got.seq, want.at, want.seq)
		}
	}
	for op := 0; op+2 < len(data); op += 3 {
		if to := int(data[op] % 5); to < numLanes {
			e := event{at: int64(data[op+1] % 16), seq: uint64(data[op+2])<<32 | uint64(op)}
			if !fast(op) || !q.pushFirst(e, to) {
				q.push(e, to)
			}
			pending = append(pending, e)
		} else if len(pending) > 0 {
			popMin(op)
		}
		if q.Len() != len(pending) {
			t.Fatalf("op %d: Len %d with %d events pending", op, q.Len(), len(pending))
		}
	}
	for len(pending) > 0 {
		popMin(len(data))
	}
	if q.Len() != 0 {
		t.Fatalf("Len %d after the drain", q.Len())
	}
}

// TestEventQueueModel runs checkQueueOps over random operation strings:
// long ones that grow lanes past their compaction point, pop-heavy ones
// that keep draining them, and shallow ones whose queue holds at most
// three events, so the one-event fast paths run often.
func TestEventQueueModel(t *testing.T) {
	// popOnly takes a lane's last event from mid-slice (a pop left its
	// head at 1), and the lane is pushed to again.
	checkQueueOps(t, []byte{4, 0, 0, 0, 1, 0, 0, 2, 0, 4, 0, 0, 4, 0, 0, 0, 3, 0, 4, 0, 0})
	rng := rand.New(rand.NewSource(0x1A9E5))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 3*(1+rng.Intn(2000)))
		rng.Read(data)
		if trial%3 == 1 {
			depth := 0
			for op := 0; op < len(data); op += 3 {
				if depth == 3 || (depth > 0 && rng.Intn(2) == 0) {
					data[op] = 4
					depth--
				} else {
					data[op] = byte(rng.Intn(numLanes))
					depth++
				}
			}
		}
		if trial%3 == 0 {
			// In-order lane traffic: a build-up, then a pop for every push —
			// the engine's steady state, where each lane holds a long
			// sorted run whose popped prefix has to be reclaimed.
			for op := 0; op < len(data); op += 3 {
				if op%6 == 0 || op < len(data)/4 {
					data[op], data[op+1], data[op+2] = byte(rng.Intn(3)), byte(min(op/400, 15)), byte(min(op/24, 255))
				} else {
					data[op] = 4
				}
			}
		}
		checkQueueOps(t, data)
	}
}

// FuzzEventQueueOrder is checkQueueOps under the native fuzzer; the seed
// corpus under testdata/fuzz runs with the ordinary tests.
func FuzzEventQueueOrder(f *testing.F) {
	f.Fuzz(checkQueueOps)
}
