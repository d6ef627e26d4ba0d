package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/adc-sim/adc/internal/ids"
)

// Every Ordered test runs against every backend: the default btree and the
// paper's own sorted slice and linked list.
func forEachBackend(t *testing.T, capacity int, fn func(t *testing.T, tbl Ordered)) {
	t.Helper()
	for _, b := range []Backend{BackendBTree, BackendSlice, BackendList} {
		t.Run(b.String(), func(t *testing.T) {
			fn(t, NewOrdered(capacity, b))
		})
	}
}

// mkEntry builds an entry whose Key() equals key exactly (Avg=key, Last=0).
func mkEntry(obj ids.ObjectID, key int64) *Entry {
	return &Entry{Object: obj, Avg: key, Last: 0, Hits: 2}
}

func assertAscending(t *testing.T, tbl Ordered) {
	t.Helper()
	es := tbl.Entries()
	for i := 1; i < len(es); i++ {
		if less(es[i], es[i-1]) {
			t.Fatalf("entries out of order at %d: key %d before %d",
				i, es[i-1].Key(), es[i].Key())
		}
	}
}

func TestOrderedInsertKeepsOrder(t *testing.T) {
	forEachBackend(t, 10, func(t *testing.T, tbl Ordered) {
		keys := []int64{50, 10, 90, 30, 70, 20}
		for i, k := range keys {
			if evicted := tbl.Insert(mkEntry(ids.ObjectID(i+1), k)); evicted != nil {
				t.Fatalf("unexpected eviction below capacity")
			}
		}
		assertAscending(t, tbl)
		if tbl.Len() != len(keys) {
			t.Errorf("Len = %d, want %d", tbl.Len(), len(keys))
		}
		if wk, ok := tbl.WorstKey(); !ok || wk != 90 {
			t.Errorf("WorstKey = %d,%v, want 90,true", wk, ok)
		}
	})
}

func TestOrderedInsertEvictsWorstWhenFull(t *testing.T) {
	// §III.3.2: a full table only keeps the candidate if it beats the
	// worst entry; Insert's contract is "evict the worst, which may be
	// the candidate itself".
	forEachBackend(t, 3, func(t *testing.T, tbl Ordered) {
		tbl.Insert(mkEntry(1, 10))
		tbl.Insert(mkEntry(2, 20))
		tbl.Insert(mkEntry(3, 30))

		// A better candidate displaces the worst resident.
		evicted := tbl.Insert(mkEntry(4, 5))
		if evicted == nil || evicted.Object != 3 {
			t.Fatalf("evicted = %v, want object 3 (key 30)", evicted)
		}
		if !tbl.Contains(4) || tbl.Contains(3) {
			t.Error("table membership wrong after displacement")
		}

		// A worse candidate is evicted straight back out.
		evicted = tbl.Insert(mkEntry(5, 99))
		if evicted == nil || evicted.Object != 5 {
			t.Fatalf("evicted = %v, want the candidate itself", evicted)
		}
		if tbl.Contains(5) {
			t.Error("rejected candidate must not remain in the table")
		}
		assertAscending(t, tbl)
	})
}

func TestOrderedRemove(t *testing.T) {
	forEachBackend(t, 5, func(t *testing.T, tbl Ordered) {
		for i := 1; i <= 5; i++ {
			tbl.Insert(mkEntry(ids.ObjectID(i), int64(i*10)))
		}
		e := tbl.Remove(3)
		if e == nil || e.Object != 3 {
			t.Fatalf("Remove(3) = %v", e)
		}
		if tbl.Contains(3) || tbl.Len() != 4 {
			t.Error("remove left stale state")
		}
		if tbl.Remove(3) != nil {
			t.Error("double remove must return nil")
		}
		if tbl.Remove(42) != nil {
			t.Error("removing absent object must return nil")
		}
		assertAscending(t, tbl)
	})
}

func TestOrderedRemoveWorst(t *testing.T) {
	forEachBackend(t, 5, func(t *testing.T, tbl Ordered) {
		if tbl.RemoveWorst() != nil {
			t.Error("RemoveWorst on empty table must return nil")
		}
		tbl.Insert(mkEntry(1, 10))
		tbl.Insert(mkEntry(2, 30))
		tbl.Insert(mkEntry(3, 20))
		if e := tbl.RemoveWorst(); e == nil || e.Object != 2 {
			t.Fatalf("RemoveWorst = %v, want object 2 (key 30)", e)
		}
		if e := tbl.RemoveWorst(); e == nil || e.Object != 3 {
			t.Fatalf("RemoveWorst = %v, want object 3 (key 20)", e)
		}
		if e := tbl.RemoveWorst(); e == nil || e.Object != 1 {
			t.Fatalf("RemoveWorst = %v, want object 1", e)
		}
		if tbl.Len() != 0 {
			t.Errorf("Len = %d, want 0", tbl.Len())
		}
	})
}

func TestOrderedDuplicateKeys(t *testing.T) {
	// Equal keys are legal (two objects with the same request rhythm);
	// ties break by ObjectID and removal must hit the right object.
	forEachBackend(t, 10, func(t *testing.T, tbl Ordered) {
		tbl.Insert(mkEntry(7, 10))
		tbl.Insert(mkEntry(3, 10))
		tbl.Insert(mkEntry(5, 10))
		assertAscending(t, tbl)
		e := tbl.Remove(3)
		if e == nil || e.Object != 3 {
			t.Fatalf("Remove(3) with duplicate keys = %v", e)
		}
		if !tbl.Contains(7) || !tbl.Contains(5) {
			t.Error("wrong entry removed among duplicates")
		}
	})
}

func TestOrderedZeroCapacityRejectsAll(t *testing.T) {
	forEachBackend(t, 0, func(t *testing.T, tbl Ordered) {
		e := mkEntry(1, 10)
		if evicted := tbl.Insert(e); evicted != e {
			t.Errorf("zero-capacity Insert must bounce the candidate, got %v", evicted)
		}
		if tbl.Len() != 0 {
			t.Error("zero-capacity table must stay empty")
		}
		if _, ok := tbl.WorstKey(); ok {
			t.Error("WorstKey on empty table must report !ok")
		}
	})
}

func TestOrderedGet(t *testing.T) {
	forEachBackend(t, 4, func(t *testing.T, tbl Ordered) {
		tbl.Insert(mkEntry(9, 42))
		if e := tbl.Get(9); e == nil || e.Key() != 42 {
			t.Errorf("Get(9) = %v", e)
		}
		if tbl.Get(8) != nil {
			t.Error("Get of absent object must return nil")
		}
	})
}

// TestBackendsAgree drives every backend with an identical random workload
// and demands identical externally visible behaviour, with the paper's
// sorted slice as the reference.
func TestBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ref := NewOrdered(16, BackendSlice)
	others := []Ordered{NewOrdered(16, BackendBTree), NewOrdered(16, BackendList)}
	for i := 0; i < 5000; i++ {
		obj := ids.ObjectID(rng.Intn(64))
		switch rng.Intn(3) {
		case 0: // insert (fresh object only)
			if ref.Contains(obj) {
				continue
			}
			key := int64(rng.Intn(1000))
			e1 := ref.Insert(mkEntry(obj, key))
			for _, o := range others {
				e2 := o.Insert(mkEntry(obj, key))
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("step %d: eviction mismatch", i)
				}
				if e1 != nil && (e1.Object != e2.Object || e1.Key() != e2.Key()) {
					t.Fatalf("step %d: evicted %v vs %v", i, e1.Object, e2.Object)
				}
			}
		case 1: // remove
			e1 := ref.Remove(obj)
			for _, o := range others {
				e2 := o.Remove(obj)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("step %d: remove mismatch for %v", i, obj)
				}
			}
		case 2: // remove worst
			e1 := ref.RemoveWorst()
			for _, o := range others {
				e2 := o.RemoveWorst()
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("step %d: removeWorst mismatch", i)
				}
				if e1 != nil && (e1.Object != e2.Object) {
					t.Fatalf("step %d: removeWorst %v vs %v", i, e1.Object, e2.Object)
				}
			}
		}
		for _, o := range others {
			if ref.Len() != o.Len() {
				t.Fatalf("step %d: length mismatch %d vs %d", i, ref.Len(), o.Len())
			}
			k1, ok1 := ref.WorstKey()
			k2, ok2 := o.WorstKey()
			if ok1 != ok2 || k1 != k2 {
				t.Fatalf("step %d: worst key mismatch (%d,%v) vs (%d,%v)", i, k1, ok1, k2, ok2)
			}
		}
	}
	// Final full-order comparison.
	e1 := ref.Entries()
	for _, o := range others {
		e2 := o.Entries()
		if len(e1) != len(e2) {
			t.Fatalf("final length mismatch")
		}
		for i := range e1 {
			if e1[i].Object != e2[i].Object {
				t.Fatalf("final order mismatch at %d: %v vs %v", i, e1[i].Object, e2[i].Object)
			}
		}
	}
}

// TestOrderedPropertySortedAndBounded is invariant 1+2 of DESIGN.md §10 as a
// quick.Check property over every backend.
func TestOrderedPropertySortedAndBounded(t *testing.T) {
	for _, backend := range []Backend{BackendBTree, BackendSlice, BackendList} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			prop := func(keys []int16, capSeed uint8) bool {
				capacity := int(capSeed%9) + 1
				tbl := NewOrdered(capacity, backend)
				for i, k := range keys {
					obj := ids.ObjectID(i)
					tbl.Insert(mkEntry(obj, int64(k)))
					if tbl.Len() > capacity {
						return false
					}
					es := tbl.Entries()
					for j := 1; j < len(es); j++ {
						if less(es[j], es[j-1]) {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}
