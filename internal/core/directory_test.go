package core

import (
	"math/rand"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

// TestDirectoryConsistency: after arbitrary churn the unified directory
// must agree exactly with the union of the three tables — same objects,
// same kinds, same entry pointers.
func TestDirectoryConsistency(t *testing.T) {
	for _, admitAll := range []bool{false, true} {
		name := "adc"
		if admitAll {
			name = "admit-all"
		}
		t.Run(name, func(t *testing.T) {
			tbl, err := NewTables(Config{
				SingleSize: 8, MultipleSize: 5, CachingSize: 3,
				CacheAdmitAll: admitAll,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tbl.dir == nil {
				t.Fatal("directory should be enabled in the default configuration")
			}
			rng := rand.New(rand.NewSource(7))
			for i := int64(1); i <= 20000; i++ {
				out := tbl.Update(ids.ObjectID(rng.Intn(120)), ids.NodeID(rng.Intn(4)), i)
				tbl.Recycle(out)
			}
			want := make(map[ids.ObjectID]slot)
			collect := func(kind Kind, each func(func(*Entry) bool)) {
				each(func(e *Entry) bool {
					if _, dup := want[e.Object]; dup {
						t.Fatalf("object %v present in two tables", e.Object)
					}
					want[e.Object] = slot{kind: kind, entry: e}
					return true
				})
			}
			collect(KindCaching, tbl.caching.Each)
			collect(KindMultiple, tbl.multiple.Each)
			collect(KindSingle, tbl.single.Each)
			if len(tbl.dir) != len(want) {
				t.Fatalf("directory has %d objects, tables have %d", len(tbl.dir), len(want))
			}
			for obj, s := range want {
				got := tbl.dir[obj]
				if got.kind != s.kind || got.entry != s.entry {
					t.Errorf("dir[%v] = {%v %p}, tables say {%v %p}",
						obj, got.kind, got.entry, s.kind, s.entry)
				}
			}
		})
	}
}

// TestDirectoryDisabledInProbeModes: the paper-faithful timing modes must
// keep element-wise probing, so the directory stays off.
func TestDirectoryDisabledInProbeModes(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"single-scan", Config{SingleSize: 4, MultipleSize: 4, CachingSize: 4, SingleScan: true}},
		{"list-backend", Config{SingleSize: 4, MultipleSize: 4, CachingSize: 4, Backend: BackendList}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := NewTables(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.dir != nil {
				t.Fatal("directory must be disabled in paper-faithful probe mode")
			}
			// The probe path must still implement the full state machine.
			tbl.Update(1, 0, 1)
			tbl.Update(1, 0, 2)
			tbl.Update(1, 0, 3)
			if !tbl.IsCached(1) {
				t.Fatal("three updates should cache object 1")
			}
		})
	}
}

// TestArenaRecyclesDropped: in steady state (full single-table, every first
// sighting dropping a forgotten object) recycling must make Update
// allocation-free and reuse the dropped entry's memory.
func TestArenaRecyclesDropped(t *testing.T) {
	tbl, err := NewTables(Config{SingleSize: 4, MultipleSize: 4, CachingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		tbl.Update(ids.ObjectID(i), 0, i)
	}
	out := tbl.Update(5, 0, 5)
	if out.Dropped == nil {
		t.Fatal("full single-table should drop on a first sighting")
	}
	dropped := out.Dropped
	tbl.Recycle(out)
	if dropped.Object != 0 || dropped.Hits != 0 {
		t.Fatal("recycled entry should be zeroed")
	}
	out = tbl.Update(6, 0, 6)
	e, kind := tbl.Lookup(6)
	if kind != KindSingle || e != dropped {
		t.Fatalf("new entry should reuse the recycled one: got %p, want %p", e, dropped)
	}
	tbl.Recycle(out)

	// Steady state allocates nothing per Update.
	obj := int64(100)
	now := int64(100)
	allocs := testing.AllocsPerRun(200, func() {
		obj++
		now++
		tbl.Recycle(tbl.Update(ids.ObjectID(obj), 0, now))
	})
	if allocs != 0 {
		t.Errorf("steady-state Update+Recycle allocates %.1f/op, want 0", allocs)
	}
}

// TestRecycleNoDrop is the no-op path: outcomes without a dropped entry
// leave the arena untouched.
func TestRecycleNoDrop(t *testing.T) {
	tbl, err := NewTables(Config{SingleSize: 4, MultipleSize: 4, CachingSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Update(1, 0, 1)
	if out.Dropped != nil {
		t.Fatal("empty table cannot drop")
	}
	tbl.Recycle(out)
	if len(tbl.arena.free) != 0 {
		t.Fatal("nothing should have been recycled")
	}
}

// TestEachMatchesEntries: Each must visit the same entries in the same
// order as Entries, allocation-free, and honour early termination.
func TestEachMatchesEntries(t *testing.T) {
	forEachBackend(t, 16, func(t *testing.T, tbl Ordered) {
		for i := 0; i < 12; i++ {
			e := NewEntry(ids.ObjectID(i), 0, int64(i*3%7))
			tbl.Insert(e)
		}
		want := tbl.Entries()
		var got []*Entry
		tbl.Each(func(e *Entry) bool {
			got = append(got, e)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("Each visited %d entries, Entries has %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("order differs at %d: %v vs %v", i, got[i].Object, want[i].Object)
			}
		}
		n := 0
		tbl.Each(func(*Entry) bool { n++; return n < 3 })
		if n != 3 {
			t.Fatalf("early-terminated Each visited %d entries, want 3", n)
		}
		allocs := testing.AllocsPerRun(20, func() {
			tbl.Each(func(*Entry) bool { return true })
		})
		if allocs != 0 {
			t.Errorf("Each allocates %.1f/op, want 0", allocs)
		}
	})
}

// TestSingleTableEach mirrors TestEachMatchesEntries for the single-table.
func TestSingleTableEach(t *testing.T) {
	tbl := NewSingleTable(8, false)
	for i := int64(1); i <= 5; i++ {
		tbl.InsertTop(NewEntry(ids.ObjectID(i), 0, i))
	}
	want := tbl.Entries()
	i := 0
	tbl.Each(func(e *Entry) bool {
		if want[i] != e {
			t.Fatalf("order differs at %d", i)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("visited %d, want %d", i, len(want))
	}
}

// TestParseBackend covers the flag-value mapping, including the default.
func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendBTree, true},
		{"btree", BackendBTree, true},
		{"slice", BackendSlice, true},
		{"list", BackendList, true},
		{"rope", 0, false},
		{"skiplist", 0, false}, // retired with the skip-list backend
		{"BTREE", 0, false},
	}
	for _, tc := range cases {
		got, ok := ParseBackend(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseBackend(%q) = (%v, %v), want (%v, %v)",
				tc.in, got, ok, tc.want, tc.ok)
		}
	}
	for _, b := range []Backend{BackendBTree, BackendSlice, BackendList} {
		back, ok := ParseBackend(b.String())
		if !ok || back != b {
			t.Errorf("round-trip failed for %v", b)
		}
	}
}

// noObj is an "absent" marker for object comparisons (ObjectID is
// unsigned, so the max value serves as the sentinel).
const noObj = ^ids.ObjectID(0)

// TestOrderedOpEquivalence drives all three backends through an identical
// randomized Insert/Remove/RemoveEntry/RemoveWorst sequence and demands
// identical observable behaviour at every step. Entries are duplicated per
// table (an entry lives in at most one container), so equality is by
// object.
func TestOrderedOpEquivalence(t *testing.T) {
	backends := []Backend{BackendBTree, BackendSlice, BackendList}
	tables := make([]Ordered, len(backends))
	held := make([]map[ids.ObjectID]*Entry, len(backends))
	for i, b := range backends {
		tables[i] = NewOrdered(16, b)
		held[i] = make(map[ids.ObjectID]*Entry)
	}
	rng := rand.New(rand.NewSource(42))
	nextObj := ids.ObjectID(0)

	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // Insert a fresh entry with a random key
			nextObj++
			last, avg := int64(rng.Intn(1000)), int64(rng.Intn(1000))
			evicted := noObj
			for i, tbl := range tables {
				e := &Entry{Object: nextObj, Last: last, Avg: avg, Hits: 1}
				held[i][nextObj] = e
				out := tbl.Insert(e)
				got := noObj
				if out != nil {
					got = out.Object
					delete(held[i], out.Object)
				}
				if i == 0 {
					evicted = got
				} else if got != evicted {
					t.Fatalf("step %d: %v evicted %v, %v evicted %v",
						step, backends[0], evicted, backends[i], got)
				}
			}
		case op < 7: // Remove by object (may miss)
			probe := ids.ObjectID(rng.Int63n(int64(nextObj) + 1))
			want := noObj
			for i, tbl := range tables {
				out := tbl.Remove(probe)
				got := noObj
				if out != nil {
					got = out.Object
					delete(held[i], out.Object)
				}
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("step %d: Remove(%v) mismatch", step, probe)
				}
			}
		case op < 8: // RemoveEntry on a known-present entry
			if len(held[0]) == 0 {
				continue
			}
			// Pick deterministically: the reference table's worst-but-one
			// would do, but any shared object works; use the smallest.
			pick := noObj
			for obj := range held[0] {
				if obj < pick {
					pick = obj
				}
			}
			for i, tbl := range tables {
				e := held[i][pick]
				if e == nil {
					t.Fatalf("step %d: %v lost object %v", step, backends[i], pick)
				}
				tbl.RemoveEntry(e)
				delete(held[i], pick)
			}
		default: // RemoveWorst
			want := noObj
			for i, tbl := range tables {
				out := tbl.RemoveWorst()
				got := noObj
				if out != nil {
					got = out.Object
					delete(held[i], out.Object)
				}
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("step %d: RemoveWorst mismatch: %v vs %v", step, want, got)
				}
			}
		}
		// Cross-check observable state every step: Len, WorstKey, order.
		refEntries := tables[0].Entries()
		for i := 1; i < len(tables); i++ {
			if tables[i].Len() != tables[0].Len() {
				t.Fatalf("step %d: Len mismatch %d vs %d", step, tables[0].Len(), tables[i].Len())
			}
			wk0, ok0 := tables[0].WorstKey()
			wki, oki := tables[i].WorstKey()
			if wk0 != wki || ok0 != oki {
				t.Fatalf("step %d: WorstKey mismatch", step)
			}
			j := 0
			tables[i].Each(func(e *Entry) bool {
				if refEntries[j].Object != e.Object {
					t.Fatalf("step %d: order differs at %d: %v vs %v",
						step, j, refEntries[j].Object, e.Object)
				}
				j++
				return true
			})
			if j != len(refEntries) {
				t.Fatalf("step %d: Each visited %d, want %d", step, j, len(refEntries))
			}
		}
	}
}
