package core

import (
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"github.com/adc-sim/adc/internal/ids"
)

// TestEntryLayout holds an entry to one cache line: 64 bytes, and an arena
// slab whose first entry starts on a 64-byte boundary, so every entry
// carved from it fills exactly one line.
func TestEntryLayout(t *testing.T) {
	if size := unsafe.Sizeof(Entry{}); size != 64 {
		t.Fatalf("unsafe.Sizeof(Entry{}) = %d, want 64", size)
	}
	var a entryArena
	for slab := 0; slab < 3; slab++ {
		first := a.get(ids.ObjectID(slab), 0, 1)
		if addr := uintptr(unsafe.Pointer(first)); addr%64 != 0 {
			t.Fatalf("slab %d starts at %#x, not on a 64-byte boundary", slab, addr)
		}
		a.slab = nil // the next get opens a fresh slab
	}
}

// get is take for callers that need only the entry.
func (a *entryArena) get(obj ids.ObjectID, loc ids.NodeID, now int64) *Entry {
	_, e := a.take(obj, loc, now)
	return e
}

// TestTablesBytesPerSlot bounds the live heap of one reference-size Tables
// (20k/20k/10k, §V.2) filled by seeded churn: entries, arena slabs, the
// ordered tables' heap arrays and the directory, per table slot. It first
// empties the pools the Tables would draw from, so all its storage is new,
// and reads HeapAlloc after two full collections, so it must not run beside
// parallel tests.
func TestTablesBytesPerSlot(t *testing.T) {
	const (
		single, multiple, caching = 20_000, 20_000, 10_000
		slots                     = single + multiple + caching
		objects, updates          = 60_000, 400_000
		maxBytesPerSlot           = 105
	)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, ok := slabPool.Get(nil); ok; _, ok = slabPool.Get(nil) {
	}
	for _, capacity := range []int{multiple, caching} {
		for _, ok := heapPool.Get(capacity); ok; _, ok = heapPool.Get(capacity) {
		}
	}
	dirSize := 1 << bits.Len(uint(2*(slots+1)-1)) // newDirectory of slots+1 entries
	for _, ok := dirPool.Get(dirSize); ok; _, ok = dirPool.Get(dirSize) {
	}
	before := heap()
	tbl := newTestTables(t, single, multiple, caching)
	rng := rand.New(rand.NewSource(1))
	for now := int64(1); now <= updates; now++ {
		tbl.Recycle(tbl.Update(ids.ObjectID(rng.Intn(objects)), ids.NodeID(rng.Intn(5)), now))
	}
	after := heap()
	if tbl.Len() != slots {
		t.Fatalf("churn left %d entries, want all %d slots full", tbl.Len(), slots)
	}
	perSlot := float64(int64(after)-int64(before)) / slots
	t.Logf("%.1f live bytes per slot (%d slots)", perSlot, slots)
	if perSlot > maxBytesPerSlot {
		t.Errorf("%.1f live bytes per table slot, want ≤ %d", perSlot, maxBytesPerSlot)
	}
	runtime.KeepAlive(tbl)
}
