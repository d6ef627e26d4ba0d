package ids

import (
	"reflect"
	"testing"
)

func TestTablePutGet(t *testing.T) {
	var tb Table[string]
	entries := map[NodeID]string{
		0:              "p0",
		4:              "p4",
		Origin:         "origin",
		Client(0):      "c0",
		Client(3):      "c3",
		-5:             "weird", // between origin and clients: sparse fallback
		denseLimit + 7: "huge",  // beyond the dense range: sparse fallback
	}
	for id, v := range entries {
		if !tb.Put(id, v) {
			t.Fatalf("Put(%v) rejected", id)
		}
	}
	if tb.Len() != len(entries) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(entries))
	}
	for id, want := range entries {
		got, ok := tb.Get(id)
		if !ok || got != want {
			t.Errorf("Get(%v) = %q,%v want %q", id, got, ok, want)
		}
	}
	for _, id := range []NodeID{1, 3, None, Client(1), Client(99), -6, denseLimit + 8} {
		if _, ok := tb.Get(id); ok {
			t.Errorf("Get(%v) found a phantom entry", id)
		}
	}
}

func TestTableRejectsDuplicates(t *testing.T) {
	var tb Table[int]
	for _, id := range []NodeID{0, Origin, Client(2), -4, denseLimit + 1} {
		if !tb.Put(id, 1) {
			t.Fatalf("first Put(%v) rejected", id)
		}
		if tb.Put(id, 2) {
			t.Errorf("duplicate Put(%v) accepted", id)
		}
		if v, _ := tb.Get(id); v != 1 {
			t.Errorf("duplicate Put(%v) overwrote the entry", id)
		}
	}
	if tb.Len() != 5 {
		t.Errorf("Len = %d, want 5", tb.Len())
	}
}

func TestTableAscendingOrder(t *testing.T) {
	var tb Table[int]
	input := []NodeID{3, Client(2), Origin, 0, Client(0), -5, 1, denseLimit + 2}
	for _, id := range input {
		tb.Put(id, int(id))
	}
	var got []NodeID
	tb.Ascending(func(id NodeID, v int) {
		if int(id) != v {
			t.Errorf("entry %v carries value %d", id, v)
		}
		got = append(got, id)
	})
	want := []NodeID{Client(2), Client(0), -5, Origin, 0, 1, 3, denseLimit + 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Ascending order = %v, want %v", got, want)
	}
}

func TestTableZeroValue(t *testing.T) {
	var tb Table[int]
	if tb.Len() != 0 {
		t.Error("zero table has entries")
	}
	if _, ok := tb.Get(0); ok {
		t.Error("zero table Get found something")
	}
	calls := 0
	tb.Ascending(func(NodeID, int) { calls++ })
	if calls != 0 {
		t.Error("zero table Ascending visited entries")
	}
}
