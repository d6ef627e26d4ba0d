package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/adc-sim/adc/internal/ids"
)

// Every Ordered test runs against every backend: the default heap and the
// paper's own linked list.
func forEachBackend(t *testing.T, capacity int, fn func(t *testing.T, tbl Ordered)) {
	t.Helper()
	for _, b := range []Backend{BackendBTree, BackendList} {
		t.Run(b.String(), func(t *testing.T) {
			fn(t, NewOrdered(capacity, b))
		})
	}
}

// forEachTable is forEachBackend plus the single-table, the Ordered table
// whose order is recency: for the tests whose expectations hold for every
// order.
func forEachTable(t *testing.T, capacity int, fn func(t *testing.T, tbl Ordered)) {
	t.Helper()
	forEachBackend(t, capacity, fn)
	t.Run("single", func(t *testing.T) { fn(t, NewSingleTable(capacity)) })
}

// mkEntry builds an entry whose Key() equals key exactly (Avg=key, Last=0).
func mkEntry(obj ids.ObjectID, key int64) *Entry {
	return &Entry{Object: obj, Avg: key, Last: 0, Hits: 2}
}

// removeObj takes obj's entry out of tbl the way the probe modes do, by
// the by-object Get and then RemoveEntry; nil if absent.
func removeObj(tbl interface {
	Get(ids.ObjectID) *Entry
	RemoveEntry(*Entry)
}, obj ids.ObjectID) *Entry {
	e := tbl.Get(obj)
	if e != nil {
		tbl.RemoveEntry(e)
	}
	return e
}

// removeWorst evicts tbl's worst entry as a full table's Insert does, or
// returns nil when tbl is empty.
func removeWorst(tbl Ordered) *Entry {
	if h, ok := tbl.(*heapTable); ok {
		if h.Len() == 0 {
			return nil
		}
		e := h.cells[0].e
		h.RemoveEntry(e)
		return e
	}
	return tbl.(interface{ removeWorst() *Entry }).removeWorst()
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
	forEachTable(t, 5, func(t *testing.T, tbl Ordered) {
		// Worst key first, so that recency order ascends by key too.
		for i := 5; i >= 1; i-- {
			tbl.Insert(mkEntry(ids.ObjectID(i), int64(i*10)))
		}
		e := removeObj(tbl, 3)
		if e == nil || e.Object != 3 {
			t.Fatalf("Remove(3) = %v", e)
		}
		if tbl.Contains(3) || tbl.Len() != 4 {
			t.Error("remove left stale state")
		}
		if removeObj(tbl, 3) != nil {
			t.Error("double remove must return nil")
		}
		if removeObj(tbl, 42) != nil {
			t.Error("removing absent object must return nil")
		}
		assertAscending(t, tbl)
	})
}

func TestOrderedRemoveWorst(t *testing.T) {
	forEachBackend(t, 5, func(t *testing.T, tbl Ordered) {
		if removeWorst(tbl) != nil {
			t.Error("removeWorst on empty table must return nil")
		}
		tbl.Insert(mkEntry(1, 10))
		tbl.Insert(mkEntry(2, 30))
		tbl.Insert(mkEntry(3, 20))
		if e := removeWorst(tbl); e == nil || e.Object != 2 {
			t.Fatalf("removeWorst = %v, want object 2 (key 30)", e)
		}
		if e := removeWorst(tbl); e == nil || e.Object != 3 {
			t.Fatalf("removeWorst = %v, want object 3 (key 20)", e)
		}
		if e := removeWorst(tbl); e == nil || e.Object != 1 {
			t.Fatalf("removeWorst = %v, want object 1", e)
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
		e := removeObj(tbl, 3)
		if e == nil || e.Object != 3 {
			t.Fatalf("Remove(3) with duplicate keys = %v", e)
		}
		if !tbl.Contains(7) || !tbl.Contains(5) {
			t.Error("wrong entry removed among duplicates")
		}
	})
}

func TestOrderedZeroCapacityRejectsAll(t *testing.T) {
	forEachTable(t, 0, func(t *testing.T, tbl Ordered) {
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
	forEachTable(t, 4, func(t *testing.T, tbl Ordered) {
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
// linked list as the reference.
func TestBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ref := NewOrdered(16, BackendList)
	others := []Ordered{NewOrdered(16, BackendBTree)}
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
			e1 := removeObj(ref, obj)
			for _, o := range others {
				e2 := removeObj(o, obj)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("step %d: remove mismatch for %v", i, obj)
				}
			}
		case 2: // remove worst
			e1 := removeWorst(ref)
			for _, o := range others {
				e2 := removeWorst(o)
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
	for _, backend := range []Backend{BackendBTree, BackendList} {
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

// TestSingleTableOrdersByRecency covers the single-table as an Ordered
// table, the admit-all ablation's caching table, which orders by insertion
// recency, not by key: Entries and Each walk from the newest entry,
// WorstKey reports the oldest entry's key whatever the keys are, and a full
// table evicts the oldest.
func TestSingleTableOrdersByRecency(t *testing.T) {
	var tbl Ordered = NewSingleTable(3)
	if _, ok := tbl.WorstKey(); ok {
		t.Error("WorstKey on an empty table must report !ok")
	}
	for _, e := range []*Entry{mkEntry(1, 30), mkEntry(2, 10), mkEntry(3, 20)} {
		if evicted := tbl.Insert(e); evicted != nil {
			t.Fatalf("Insert(%v) into a table with room evicted %v", e.Object, evicted.Object)
		}
	}
	order := func() []ids.ObjectID {
		var objs []ids.ObjectID
		for _, e := range tbl.Entries() {
			objs = append(objs, e.Object)
		}
		return objs
	}
	if got := order(); !slices.Equal(got, []ids.ObjectID{3, 2, 1}) {
		t.Errorf("Entries = %v, want newest first [3 2 1]", got)
	}
	if k, ok := tbl.WorstKey(); !ok || k != 30 {
		t.Errorf("WorstKey = %d, %v; want the oldest entry's key 30", k, ok)
	}
	if evicted := tbl.Insert(mkEntry(4, 5)); evicted == nil || evicted.Object != 1 {
		t.Errorf("Insert into a full table evicted %v, want the oldest, object 1", evicted)
	}
	if e := removeObj(tbl, 2); e == nil || e.Object != 2 || tbl.Contains(2) {
		t.Errorf("removing object 2 returned %v", e)
	}
	if got := order(); !slices.Equal(got, []ids.ObjectID{4, 3}) || tbl.Len() != 2 || tbl.Cap() != 3 {
		t.Errorf("Entries = %v, Len %d, Cap %d; want [4 3], 2, 3", got, tbl.Len(), tbl.Cap())
	}
	if e := removeWorst(tbl); e == nil || e.Object != 3 {
		t.Errorf("removeWorst = %v, want object 3", e)
	}
}

// FuzzOrdered drives the heap and the list backend in lockstep, the list
// as the reference. The first byte sets the capacity (0–7); then two bytes
// an op: op%3 and an argument. 0 inserts a fresh object with key arg%8, so
// keys repeat; 1 removes the resident at rank arg (RemoveEntry); 2 takes
// that resident out, folds an access arg%4 ticks later into it
// (CalcAverage) and reinserts it. After every op both must have evicted
// the same object, and agree on WorstKey, Len and Entries, with both
// structures checking clean.
func FuzzOrdered(f *testing.F) {
	f.Add([]byte{4, 0, 3, 0, 3, 0, 1, 0, 5, 0, 0, 1, 1, 2, 0})
	f.Add([]byte{3, 0, 7, 0, 6, 0, 5, 0, 4, 0, 3, 2, 2, 2, 0, 1, 1})
	f.Add([]byte{0, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0] % 8)
		tables := []Ordered{newHeapTable(capacity), newListTable(capacity)}
		held := []map[ids.ObjectID]*Entry{{}, {}}
		next, now := ids.ObjectID(0), int64(0)
		// rank returns the resident at position arg in ascending order.
		rank := func(arg byte) ids.ObjectID {
			es := tables[1].Entries()
			return es[int(arg)%len(es)].Object
		}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%3, data[i+1]
			evicted := [2]ids.ObjectID{noObj, noObj}
			switch {
			case op == 0:
				next++
				for b, tbl := range tables {
					e := mkEntry(next, int64(arg%8))
					held[b][next] = e
					if out := tbl.Insert(e); out != nil {
						evicted[b] = out.Object
						delete(held[b], out.Object)
					}
				}
			case tables[1].Len() == 0:
			case op == 1:
				obj := rank(arg)
				for b, tbl := range tables {
					tbl.RemoveEntry(held[b][obj])
					delete(held[b], obj)
				}
			default:
				obj := rank(arg)
				now += int64(arg % 4)
				for b, tbl := range tables {
					e := held[b][obj]
					tbl.RemoveEntry(e)
					e.CalcAverage(now)
					if out := tbl.Insert(e); out != nil {
						evicted[b] = out.Object
						delete(held[b], out.Object)
					}
				}
			}
			if evicted[0] != evicted[1] {
				t.Fatalf("op %d: heap evicted %v, list %v", i/2, evicted[0], evicted[1])
			}
			if err := agreeOrdered(tables[0], tables[1]); err != nil {
				t.Fatalf("op %d (%d, %d): %v", i/2, op, arg, err)
			}
		}
	})
}

// agreeOrdered reports the first difference between tbl and the reference
// ref in Len, WorstKey or Entries, or a failed check of either.
func agreeOrdered(tbl, ref Ordered) error {
	for _, o := range []Ordered{tbl, ref} {
		if err := o.(interface{ check() error }).check(); err != nil {
			return err
		}
	}
	if tbl.Len() != ref.Len() {
		return fmt.Errorf("Len %d, reference %d", tbl.Len(), ref.Len())
	}
	k, ok := tbl.WorstKey()
	if rk, rok := ref.WorstKey(); k != rk || ok != rok {
		return fmt.Errorf("WorstKey %d, %v; reference %d, %v", k, ok, rk, rok)
	}
	got, want := tbl.Entries(), ref.Entries()
	for i := range got {
		if got[i].Object != want[i].Object {
			return fmt.Errorf("Entries[%d] is object %v, reference %v", i, got[i].Object, want[i].Object)
		}
	}
	return nil
}
