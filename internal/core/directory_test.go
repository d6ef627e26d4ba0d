package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

// TestDirectoryConsistency: after arbitrary churn the unified directory
// must agree exactly with the union of the three tables — same objects,
// same kinds, same entry pointers (CheckInvariants).
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
			if err := tbl.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDirectoryDisabledInProbeModes: the paper-faithful timing mode, the
// list backend, must keep element-wise probing, so the directory stays off.
func TestDirectoryDisabledInProbeModes(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"list-backend", Config{SingleSize: 4, MultipleSize: 4, CachingSize: 4, Backend: BackendList}},
		// single-scan: the paper-faithful scan of every table (BackendList,
		// which replaced Config.SingleScan) under admit-all caching.
		{"single-scan", Config{SingleSize: 4, MultipleSize: 4, CachingSize: 4, Backend: BackendList, CacheAdmitAll: true}},
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
	tbl := NewSingleTable(8)
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
		got, err := ParseBackend(tc.in)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("ParseBackend(%q) = (%v, %v), want (%v, ok=%v)",
				tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, b := range []Backend{BackendBTree, BackendSlice, BackendList} {
		back, err := ParseBackend(b.String())
		if err != nil || back != b {
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

// dirModel pairs a directory with the builtin map it must behave like.
type dirModel struct {
	d     *directory
	model map[ids.ObjectID]*Entry
}

func newDirModel(maxEntries int, seed uint64) *dirModel {
	return &dirModel{d: newDirectory(maxEntries, seed), model: make(map[ids.ObjectID]*Entry)}
}

func (m *dirModel) set(obj ids.ObjectID) {
	e := &Entry{Object: obj}
	m.d.set(obj, e)
	m.model[obj] = e
}

func (m *dirModel) del(obj ids.ObjectID) {
	m.d.del(obj)
	delete(m.model, obj)
}

// agree compares the population, the directory's own structure and get of
// every key below universe with the model.
func (m *dirModel) agree(universe int) error {
	if m.d.n != len(m.model) {
		return fmt.Errorf("directory holds %d objects, model %d", m.d.n, len(m.model))
	}
	if err := m.d.check(); err != nil {
		return err
	}
	for k := 0; k < universe; k++ {
		obj := ids.ObjectID(k)
		if got, want := m.d.get(obj), m.model[obj]; got != want {
			return fmt.Errorf("get(%v) = %p, model %p", obj, got, want)
		}
	}
	return nil
}

// TestDirectoryModel drives random set/get/del against a builtin map, with
// the population pushed to the sizing bound, churned there, and drained.
func TestDirectoryModel(t *testing.T) {
	const bound, universe = 1000, 3000
	m := newDirModel(bound, 0x5eed)
	if len(m.d.cells) != 2048 {
		t.Fatalf("%d cells for a bound of %d, want 2048", len(m.d.cells), bound)
	}
	rng := rand.New(rand.NewSource(11))
	// A quarter of the ops only read. The rest delete a present key with
	// probability del (else overwrite it in place) and insert an absent one
	// while the bound allows and the phase is not draining (else delete it,
	// which must be a no-op). At these rates churn sits pinned at the bound.
	phases := []struct {
		name  string
		steps int
		del   float64
		drain bool
	}{{"fill", 6000, 0, false}, {"churn", 20000, 0.6, false}, {"drain", 40000, 1, true}}
	for _, ph := range phases {
		for step := 0; step < ph.steps; step++ {
			obj := ids.ObjectID(rng.Intn(universe))
			switch _, present := m.model[obj]; {
			case rng.Intn(4) == 0:
			case present && rng.Float64() >= ph.del:
				m.set(obj)
			case !present && !ph.drain && len(m.model) < bound:
				m.set(obj)
			default:
				m.del(obj)
			}
			if got, want := m.d.get(obj), m.model[obj]; got != want || m.d.n != len(m.model) {
				t.Fatalf("%s step %d: get(%v) = %p (n %d), model %p (n %d)",
					ph.name, step, obj, got, m.d.n, want, len(m.model))
			}
			if step%500 == 0 {
				if err := m.agree(universe); err != nil {
					t.Fatalf("%s step %d: %v", ph.name, step, err)
				}
			}
		}
		if err := m.agree(universe); err != nil {
			t.Fatalf("after %s: %v", ph.name, err)
		}
		switch ph.name {
		case "fill":
			if len(m.model) != bound {
				t.Fatalf("fill reached %d objects, want the bound %d", len(m.model), bound)
			}
		case "churn":
			if len(m.model) < bound*9/10 {
				t.Fatalf("churn ended at %d objects, meant to stay near the bound %d", len(m.model), bound)
			}
		case "drain":
			if len(m.model) != 0 {
				t.Fatalf("drain left %d objects", len(m.model))
			}
		}
	}
}

// Fuzz geometry: a bound of 8 objects gives 16 cells, and the 256 one-byte
// keys land 16 to a cell, so runs collide, grow, wrap and close constantly.
// The seed is fixed so the committed corpus replays the same probe runs.
const (
	fuzzDirBound = 8
	fuzzDirSeed  = 0xadc
)

// FuzzDirectory reads two bytes an op — op%3 (0 set, 1 del, 2 get) and a
// one-byte key — and compares get of every key and the population with a
// builtin map after each. A set that would exceed the bound is skipped: the
// caller owns the bound (Tables sizes the directory for its capacities).
func FuzzDirectory(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newDirModel(fuzzDirBound, fuzzDirSeed)
		for i := 0; i+1 < len(data); i += 2 {
			obj := ids.ObjectID(data[i+1])
			switch _, present := m.model[obj]; {
			case data[i]%3 == 1:
				m.del(obj)
			case data[i]%3 == 0 && (present || len(m.model) < fuzzDirBound):
				m.set(obj)
			}
			if err := m.agree(256); err != nil {
				t.Fatalf("op %d (%d on key %d): %v", i/2, data[i]%3, data[i+1], err)
			}
		}
	})
}

// TestFuzzCorpusShapes pins what the committed FuzzDirectory corpus entries
// are named for: which keys share a home cell under the fuzz seed. If the
// hash changes, this fails first and the corpus needs new keys.
func TestFuzzCorpusShapes(t *testing.T) {
	d := newDirectory(fuzzDirBound, fuzzDirSeed)
	if len(d.cells) != 16 {
		t.Fatalf("fuzz directory has %d cells, want 16", len(d.cells))
	}
	for home, keys := range map[uint64][]ids.ObjectID{
		5:  {15, 23, 40},                        // delete-head / -middle / -tail
		6:  {7},                                 // delete-steps-over-cell-at-home
		15: {4, 17, 22},                         // run-wraps-array-end
		0:  {37},                                // … and the cell it pushes along
		10: {8, 19, 25, 26, 28, 35, 42, 44, 81}, // fill-to-bound
	} {
		for _, k := range keys {
			if got := d.home(k); got != home {
				t.Errorf("home(%v) = %d, the corpus assumes %d", k, got, home)
			}
		}
	}
}

// TestDirectorySeedDoesNotReachResults: the hash seed may change probe
// lengths and nothing else. Two Tables that differ only in it, fed one long
// mixed stream, must report identical outcomes and dump identical tables.
func TestDirectorySeedDoesNotReachResults(t *testing.T) {
	cfg := Config{SingleSize: 300, MultipleSize: 200, CachingSize: 100}
	a, err := newTables(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newTables(cfg, 0xfeedfacecafebeef)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for now := int64(1); now <= 200_000; now++ {
		op := randomChurnOp(rng, 1500)
		if ra, rb := op.apply(a, now), op.apply(b, now); ra != rb {
			t.Fatalf("step %d (%+v): outcomes differ: %+v vs %+v", now, op, ra, rb)
		}
	}
	var da, db bytes.Buffer
	if err := a.Dump(&da, 200_000); err != nil {
		t.Fatal(err)
	}
	if err := b.Dump(&db, 200_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da.Bytes(), db.Bytes()) {
		t.Fatal("table dumps differ between directory seeds")
	}
	for _, tbl := range []*Tables{a, b} {
		if err := tbl.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// probes is the number of cells get visits to find obj (which is present).
func (d *directory) probes(obj ids.ObjectID) int {
	n := 1
	for i := d.home(obj); d.cells[i].obj != obj; i = (i + 1) & d.mask {
		n++
	}
	return n
}

// TestDirectoryCollidingKeys is the hostile client: with the seed known,
// every key is chosen to share one home cell, so the whole population is one
// probe run. Lookups degrade to a walk — the reason the seed is random
// outside tests — and every answer must stay right through insert/delete
// cycles; a Tables with another seed, for which the same keys scatter, is
// the reference.
func TestDirectoryCollidingKeys(t *testing.T) {
	cfg := Config{SingleSize: 64, MultipleSize: 32, CachingSize: 16}
	const seed = 99
	hostile, err := newTables(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newTables(cfg, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	var keys []ids.ObjectID
	for k := ids.ObjectID(0); len(keys) < 150; k++ {
		if hostile.dir.home(k) == 3 {
			keys = append(keys, k)
		}
	}
	rng := rand.New(rand.NewSource(8))
	worst := 0
	for now := int64(1); now <= 30_000; now++ {
		op := randomChurnOp(rng, len(keys))
		op.obj = keys[op.obj]
		if rh, rr := op.apply(hostile, now), op.apply(ref, now); rh != rr {
			t.Fatalf("step %d (%+v): outcomes differ: %+v vs %+v", now, op, rh, rr)
		}
		if now%100 == 0 {
			if err := hostile.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", now, err)
			}
		}
		if e, _ := hostile.Lookup(op.obj); e != nil {
			worst = max(worst, hostile.dir.probes(op.obj))
		}
	}
	if worst < cfg.SingleSize {
		t.Errorf("longest probe %d: the keys did not collide, the test proves nothing", worst)
	}
	t.Logf("one-cell keys: longest probe %d cells of %d", worst, len(hostile.dir.cells))
}

// TestDirectoryProbeLengthOnWorkloadIDs: the ID patterns the workloads
// generate — dense fill IDs from 0, one-timers counting up from 2^40,
// strided IDs — must not cluster. At the reference population (50k entries
// in 131072 cells, load 0.38) uniform hashing gives a mean of about 1.3
// probes per hit; a weak mix shows up as a multiple of that.
func TestDirectoryProbeLengthOnWorkloadIDs(t *testing.T) {
	const population = 50_000
	patterns := map[string]func(i uint64) uint64{
		"sequential":     func(i uint64) uint64 { return i },
		"one-timers":     func(i uint64) uint64 { return 1<<40 + i },
		"stride-2^10":    func(i uint64) uint64 { return i << 10 },
		"stride-2^32":    func(i uint64) uint64 { return i << 32 },
		"stride-2^47":    func(i uint64) uint64 { return i << 47 },
		"fill+one-timer": func(i uint64) uint64 { return (i&1)<<40 + i>>1 },
	}
	for name, id := range patterns {
		for _, seed := range []uint64{0, 1, 0x9e3779b97f4a7c15} {
			d := newDirectory(population+1, seed)
			for i := uint64(0); i < population; i++ {
				obj := ids.ObjectID(id(i))
				d.set(obj, &Entry{Object: obj})
			}
			total := 0
			for i := uint64(0); i < population; i++ {
				total += d.probes(ids.ObjectID(id(i)))
			}
			mean := float64(total) / population
			t.Logf("%-14s seed %#x: mean probe length %.3f", name, seed, mean)
			if mean >= 2 {
				t.Errorf("%s seed %#x: mean probe length %.2f, want < 2", name, seed, mean)
			}
		}
	}
}

// TestCheckInvariantsCatches breaks each invariant by hand and expects the
// check to say so: a check that cannot fail guards nothing.
func TestCheckInvariantsCatches(t *testing.T) {
	breaks := map[string]func(tbl *Tables, cached, known *Entry){
		// The best entry gets better: the entries are still in order, only
		// the key stored beside the pointer is stale.
		"inline key drifted from its entry": func(_ *Tables, cached, _ *Entry) { cached.Avg -= 1000 },
		"kind disagrees with the table":     func(_ *Tables, cached, _ *Entry) { cached.kind = KindMultiple },
		"object missing from the directory": func(tbl *Tables, _, known *Entry) { tbl.dir.del(known.Object) },
		"directory maps a forgotten object": func(tbl *Tables, _, _ *Entry) { tbl.dir.set(9999, &Entry{Object: 9999}) },
		"directory points at another entry": func(tbl *Tables, _, known *Entry) {
			tbl.dir.set(known.Object, &Entry{Object: known.Object, kind: known.kind})
		},
		"object in two tables": func(tbl *Tables, cached, _ *Entry) {
			tbl.single.InsertTop(&Entry{Object: cached.Object, kind: KindSingle})
		},
		"free-list entry still in a table": func(tbl *Tables, _, known *Entry) {
			tbl.arena.free = append(tbl.arena.free, known)
		},
		"table above capacity": func(tbl *Tables, _, _ *Entry) { tbl.single.capacity = 1 },
	}
	for name, breakIt := range breaks {
		t.Run(name, func(t *testing.T) {
			tbl := newTestTables(t, 8, 8, 4)
			rng := rand.New(rand.NewSource(3))
			for now := int64(1); now <= 2000; now++ {
				tbl.Recycle(tbl.Update(ids.ObjectID(rng.Intn(30)), 1, now))
			}
			if err := tbl.CheckInvariants(); err != nil {
				t.Fatalf("before the break: %v", err)
			}
			cached := tbl.Caching().Entries()[0]
			known := tbl.Single().Entries()[1]
			breakIt(tbl, cached, known)
			err := tbl.CheckInvariants()
			if err == nil {
				t.Fatal("CheckInvariants passed a broken state")
			}
			t.Log(err)
		})
	}
}
