package core

import (
	"testing"
	"testing/quick"

	"github.com/adc-sim/adc/internal/ids"
)

// withSingleTable runs fn on an empty single-table of the given capacity,
// as the subtest "indexed" these tests are reported under.
func withSingleTable(t *testing.T, capacity int, fn func(t *testing.T, tbl *SingleTable)) {
	t.Helper()
	t.Run("indexed", func(t *testing.T) { fn(t, NewSingleTable(capacity)) })
}

func TestSingleTableInsertAndLookup(t *testing.T) {
	withSingleTable(t, 4, func(t *testing.T, tbl *SingleTable) {
		for i := 1; i <= 3; i++ {
			if dropped := tbl.InsertTop(NewEntry(ids.ObjectID(i), 0, int64(i))); dropped != nil {
				t.Fatalf("unexpected drop %v before capacity reached", dropped.Object)
			}
		}
		if tbl.Len() != 3 {
			t.Fatalf("Len = %d, want 3", tbl.Len())
		}
		if !tbl.Contains(2) {
			t.Error("Contains(2) = false, want true")
		}
		if e := tbl.Get(2); e == nil || e.Object != 2 {
			t.Errorf("Get(2) = %v", e)
		}
		if tbl.Contains(99) {
			t.Error("Contains(99) = true, want false")
		}
	})
}

func TestSingleTableLRUEviction(t *testing.T) {
	// §III.3.1: "Each unknown object will receive a new entry on the top
	// of the table, displacing the oldest entry at the bottom".
	withSingleTable(t, 3, func(t *testing.T, tbl *SingleTable) {
		for i := 1; i <= 3; i++ {
			tbl.InsertTop(NewEntry(ids.ObjectID(i), 0, int64(i)))
		}
		dropped := tbl.InsertTop(NewEntry(4, 0, 4))
		if dropped == nil || dropped.Object != 1 {
			t.Fatalf("dropped = %v, want oldest object 1", dropped)
		}
		if tbl.Contains(1) {
			t.Error("evicted object still present")
		}
		if tbl.Len() != 3 {
			t.Errorf("Len = %d, want 3", tbl.Len())
		}
		// Top-to-bottom order must be 4, 3, 2.
		got := tbl.Entries()
		want := []ids.ObjectID{4, 3, 2}
		for i, e := range got {
			if e.Object != want[i] {
				t.Errorf("Entries()[%d].Object = %v, want %v", i, e.Object, want[i])
			}
		}
	})
}

func TestSingleTableRemove(t *testing.T) {
	withSingleTable(t, 3, func(t *testing.T, tbl *SingleTable) {
		tbl.InsertTop(NewEntry(1, 0, 1))
		tbl.InsertTop(NewEntry(2, 0, 2))
		e := tbl.Remove(1)
		if e == nil || e.Object != 1 {
			t.Fatalf("Remove(1) = %v", e)
		}
		if tbl.Len() != 1 || tbl.Contains(1) {
			t.Error("entry not fully removed")
		}
		if tbl.Remove(1) != nil {
			t.Error("second Remove(1) should return nil")
		}
		if tbl.Remove(99) != nil {
			t.Error("Remove of absent object should return nil")
		}
	})
}

func TestSingleTableGetDoesNotPromote(t *testing.T) {
	// Forward_Addr lookups must not refresh LRU order; only
	// re-insertion via Update_Entry moves an entry to the top.
	withSingleTable(t, 2, func(t *testing.T, tbl *SingleTable) {
		tbl.InsertTop(NewEntry(1, 0, 1))
		tbl.InsertTop(NewEntry(2, 0, 2))
		tbl.Get(1) // touch the bottom entry
		dropped := tbl.InsertTop(NewEntry(3, 0, 3))
		if dropped == nil || dropped.Object != 1 {
			t.Errorf("dropped = %v, want 1 (Get must not promote)", dropped)
		}
	})
}

func TestSingleTableCapacityOne(t *testing.T) {
	withSingleTable(t, 1, func(t *testing.T, tbl *SingleTable) {
		tbl.InsertTop(NewEntry(1, 0, 1))
		dropped := tbl.InsertTop(NewEntry(2, 0, 2))
		if dropped == nil || dropped.Object != 1 {
			t.Fatalf("dropped = %v, want 1", dropped)
		}
		if tbl.Len() != 1 || !tbl.Contains(2) {
			t.Error("capacity-1 table in wrong state")
		}
	})
}

// TestSingleTableNeverExceedsCapacity is invariant 1 of DESIGN.md §10.
func TestSingleTableNeverExceedsCapacity(t *testing.T) {
	prop := func(objs []uint8, capSeed uint8) bool {
		capacity := int(capSeed%7) + 1
		tbl := NewSingleTable(capacity)
		for i, o := range objs {
			obj := ids.ObjectID(o)
			if tbl.Contains(obj) {
				tbl.Remove(obj)
			}
			tbl.InsertTop(NewEntry(obj, 0, int64(i)))
			if tbl.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
