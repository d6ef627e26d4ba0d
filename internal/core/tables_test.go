package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

func newTestTables(t *testing.T, single, multiple, caching int) *Tables {
	t.Helper()
	tbl, err := NewTables(Config{
		SingleSize:   single,
		MultipleSize: multiple,
		CachingSize:  caching,
	})
	if err != nil {
		t.Fatalf("NewTables: %v", err)
	}
	return tbl
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid", Config{SingleSize: 1, MultipleSize: 1, CachingSize: 1}, false},
		{"paper reference", Config{SingleSize: 20000, MultipleSize: 20000, CachingSize: 10000}, false},
		{"zero single", Config{SingleSize: 0, MultipleSize: 1, CachingSize: 1}, true},
		{"negative multiple", Config{SingleSize: 1, MultipleSize: -1, CachingSize: 1}, true},
		{"zero caching", Config{SingleSize: 1, MultipleSize: 1, CachingSize: 0}, true},
		{"bad backend", Config{SingleSize: 1, MultipleSize: 1, CachingSize: 1, Backend: Backend(9)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestUpdateCreatesInSingle(t *testing.T) {
	// Part 4: unknown object → fresh entry on top of the single-table.
	tbl := newTestTables(t, 4, 4, 4)
	out := tbl.Update(1, 2, 100)
	if out.From != KindNone || out.To != KindSingle {
		t.Fatalf("outcome = %+v, want create-in-single", out)
	}
	e, kind := tbl.Lookup(1)
	if kind != KindSingle {
		t.Fatalf("Lookup kind = %v, want single", kind)
	}
	if e.Avg != 0 || e.Hits != 1 || e.Last != 100 || e.Location != 2 {
		t.Errorf("entry = %+v, want fresh entry avg=0 hits=1", e)
	}
}

func TestUpdatePromotesSingleToMultiple(t *testing.T) {
	// Part 3: a second hit computes the average and promotes into the
	// multiple-table (which has space, so anything is admitted).
	tbl := newTestTables(t, 4, 4, 4)
	tbl.Update(1, 2, 100)
	out := tbl.Update(1, 3, 150)
	if out.From != KindSingle || out.To != KindMultiple {
		t.Fatalf("outcome = %+v, want single→multiple", out)
	}
	e, kind := tbl.Lookup(1)
	if kind != KindMultiple {
		t.Fatalf("Lookup kind = %v, want multiple", kind)
	}
	if e.Avg != 50 || e.Hits != 2 || e.Location != 3 {
		t.Errorf("entry = %+v, want avg=50 hits=2 loc=Proxy[3]", e)
	}
}

func TestUpdatePromotesMultipleToCaching(t *testing.T) {
	// Part 2: a third hit moves the entry into the caching table.
	tbl := newTestTables(t, 4, 4, 4)
	tbl.Update(1, 2, 100)
	tbl.Update(1, 2, 150)
	out := tbl.Update(1, 2, 200)
	if out.From != KindMultiple || out.To != KindCaching {
		t.Fatalf("outcome = %+v, want multiple→caching", out)
	}
	if !tbl.IsCached(1) {
		t.Error("object must be cached after promotion")
	}
}

func TestUpdateCachingStaysInCaching(t *testing.T) {
	// Part 1: cached entries are updated in place, never demoted by an
	// update — demotion only happens when displaced by a better entry.
	tbl := newTestTables(t, 4, 4, 4)
	tbl.Update(1, 2, 100)
	tbl.Update(1, 2, 150)
	tbl.Update(1, 2, 200)
	out := tbl.Update(1, 5, 5000) // huge gap — avg gets much worse
	if out.From != KindCaching || out.To != KindCaching {
		t.Fatalf("outcome = %+v, want caching→caching", out)
	}
	e, _ := tbl.Lookup(1)
	if e.Location != 5 {
		t.Errorf("location = %v, want Proxy[5]", e.Location)
	}
}

func TestUpdateFullCacheDemotesWorst(t *testing.T) {
	// Fig. 8 Part 2: when the caching table is full, the incoming entry
	// must beat the worst case; the displaced worst moves back into the
	// multiple-table.
	tbl := newTestTables(t, 8, 8, 1)

	// Hot object A fills the single cache slot (3 accesses, gap 10).
	for _, now := range []int64{10, 20, 30} {
		tbl.Update(1, 0, now)
	}
	if !tbl.IsCached(1) {
		t.Fatal("object 1 should be cached")
	}

	// Hotter object B (gap 2) displaces A.
	for _, now := range []int64{40, 42, 44} {
		out := tbl.Update(2, 0, now)
		if now == 44 {
			if out.To != KindCaching {
				t.Fatalf("object 2 not promoted: %+v", out)
			}
			if out.CacheEvicted == nil || out.CacheEvicted.Object != 1 {
				t.Fatalf("CacheEvicted = %v, want object 1", out.CacheEvicted)
			}
		}
	}
	if tbl.IsCached(1) {
		t.Error("object 1 must be demoted from cache")
	}
	if !tbl.IsCached(2) {
		t.Error("object 2 must be cached")
	}
	// A must be back in the multiple-table, "giving them the chance to
	// be hit again in the near future" (§III.3.3).
	if _, kind := tbl.Lookup(1); kind != KindMultiple {
		t.Errorf("demoted object 1 in %v, want multiple", kind)
	}
}

func TestUpdateColdObjectCannotEnterFullCache(t *testing.T) {
	// A cold object (gap 500) must not displace an object that is both
	// hot (gap 2) and fresh. The hot object keeps being requested so
	// aging does not expire it — if it went idle, the aging rule would
	// rightly let the newcomer win (see TestUpdateAgingExpiresIdleHotObject).
	tbl := newTestTables(t, 8, 8, 1)
	for now := int64(10); now <= 1020; now += 2 {
		tbl.Update(1, 0, now) // hot and fresh throughout
		switch now {
		case 20, 520, 1020:
			tbl.Update(2, 0, now+1) // cold: gap 500
		}
	}
	if !tbl.IsCached(1) || tbl.IsCached(2) {
		t.Error("cold object displaced a hot fresh one — selective caching broken")
	}
	if _, kind := tbl.Lookup(2); kind != KindMultiple {
		t.Errorf("cold object in %v, want multiple", kind)
	}
}

func TestUpdateAgingExpiresIdleHotObject(t *testing.T) {
	// §III.4: "To make sure that old objects will expire" the aging rule
	// penalises idleness. An object that was hot long ago must lose its
	// cache slot to one that is active now, even if the newcomer's
	// average is numerically worse.
	tbl := newTestTables(t, 8, 8, 1)
	for _, now := range []int64{10, 12, 14} { // hot (avg 2), then idle
		tbl.Update(1, 0, now)
	}
	for _, now := range []int64{500, 1000, 1500} { // active, avg 500
		tbl.Update(2, 0, now)
	}
	// At t=1500 object 1's aged average is (2+1486)/2 ≈ 744 while
	// object 2's is (500+0)/2 = 250 — object 2 must win the slot.
	if tbl.IsCached(1) || !tbl.IsCached(2) {
		t.Error("aging failed: idle object kept its cache slot")
	}
}

func TestUpdateFullMultipleDemotesToSingleTop(t *testing.T) {
	// Fig. 8 Part 3: "the last element of the multiple-table will be
	// placed at the top of the single-table".
	tbl := newTestTables(t, 8, 1, 8)

	// Fill the cache-bound pipeline: obj 1 promoted through multiple
	// into caching (cache has space → admitted).
	tbl.Update(1, 0, 10)
	tbl.Update(1, 0, 20) // 1 → multiple (avg 10)
	// obj 2: worse rhythm, occupies multiple after 1 leaves... but 1 is
	// still in multiple until its third access. Use a fresh layout:
	// obj 2 enters multiple while it is full with obj 1.
	tbl.Update(2, 0, 100)
	out := tbl.Update(2, 0, 102) // avg 2, beats obj 1's key → displaces it
	if out.From != KindSingle || out.To != KindMultiple {
		t.Fatalf("outcome = %+v, want single→multiple", out)
	}
	if out.MultipleEvicted == nil || out.MultipleEvicted.Object != 1 {
		t.Fatalf("MultipleEvicted = %v, want object 1", out.MultipleEvicted)
	}
	// Object 1 must now be on top of the single-table.
	if _, kind := tbl.Lookup(1); kind != KindSingle {
		t.Fatalf("demoted object 1 not in single-table")
	}
	if top := tbl.Single().Entries()[0]; top.Object != 1 {
		t.Errorf("single-table top = %v, want object 1", top.Object)
	}
}

func TestDemotedEntryKeepsForwardingInfo(t *testing.T) {
	// §V.3.2: "when old entries from the multiple-table move back into
	// the single-table, they still keep their forwarding information".
	tbl := newTestTables(t, 8, 1, 8)
	tbl.Update(1, 7, 10)
	tbl.Update(1, 7, 20)
	tbl.Update(2, 3, 100)
	tbl.Update(2, 3, 102) // displaces object 1 into the single-table
	e, kind := tbl.Lookup(1)
	if kind != KindSingle {
		t.Fatalf("object 1 in %v, want single", kind)
	}
	if e.Location != 7 {
		t.Errorf("demoted entry lost its location: %v, want Proxy[7]", e.Location)
	}
	if e.Avg == 0 || e.Hits != 2 {
		t.Errorf("demoted entry lost its history: %+v", e)
	}
}

func TestUpdateSingleOverflowDrops(t *testing.T) {
	tbl := newTestTables(t, 2, 2, 2)
	tbl.Update(1, 0, 1)
	tbl.Update(2, 0, 2)
	out := tbl.Update(3, 0, 3)
	if out.Dropped == nil || out.Dropped.Object != 1 {
		t.Fatalf("Dropped = %v, want object 1", out.Dropped)
	}
	if _, kind := tbl.Lookup(1); kind != KindNone {
		t.Error("dropped object still findable")
	}
}

func TestForwardLocation(t *testing.T) {
	tbl := newTestTables(t, 4, 4, 4)
	if _, ok := tbl.ForwardLocation(1); ok {
		t.Error("unknown object must report !ok (random forwarding)")
	}
	tbl.Update(1, 6, 100)
	loc, ok := tbl.ForwardLocation(1)
	if !ok || loc != 6 {
		t.Errorf("ForwardLocation = %v,%v, want Proxy[6],true", loc, ok)
	}
}

// TestObjectInAtMostOneTable is invariant 3 of DESIGN.md §10: after any
// sequence of updates an object lives in at most one table.
func TestObjectInAtMostOneTable(t *testing.T) {
	tbl := newTestTables(t, 5, 3, 2)
	rng := rand.New(rand.NewSource(7))
	now := int64(0)
	for i := 0; i < 20000; i++ {
		now++
		obj := ids.ObjectID(rng.Intn(40))
		tbl.Update(obj, ids.NodeID(rng.Intn(5)), now)
		if i%500 != 0 {
			continue
		}
		for o := ids.ObjectID(0); o < 40; o++ {
			n := 0
			if tbl.Caching().Contains(o) {
				n++
			}
			if tbl.Multiple().Contains(o) {
				n++
			}
			if tbl.Single().Contains(o) {
				n++
			}
			if n > 1 {
				t.Fatalf("step %d: object %v present in %d tables", i, o, n)
			}
		}
	}
}

// TestTablesBoundedUnderChurn is invariant 1 under a long random workload,
// for every backend.
func TestTablesBoundedUnderChurn(t *testing.T) {
	for _, backend := range []Backend{BackendBTree, BackendSlice, BackendList} {
		t.Run(backend.String(), func(t *testing.T) {
			tbl, err := NewTables(Config{
				SingleSize: 8, MultipleSize: 5, CachingSize: 3,
				Backend: backend,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 50000; i++ {
				tbl.Update(ids.ObjectID(rng.Intn(100)), ids.NodeID(rng.Intn(4)), int64(i))
				if tbl.Single().Len() > 8 || tbl.Multiple().Len() > 5 || tbl.Caching().Len() > 3 {
					t.Fatalf("step %d: capacity exceeded (%d/%d/%d)",
						i, tbl.Single().Len(), tbl.Multiple().Len(), tbl.Caching().Len())
				}
				if err := tbl.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
		})
	}
}

// TestBackendEquivalenceEndToEnd: the full Update state machine must behave
// identically on every ordered-table backend — same Outcome stream (kinds
// and moved objects) and same final table dumps, with the paper's sorted
// slice as the reference.
func TestBackendEquivalenceEndToEnd(t *testing.T) {
	mk := func(b Backend) *Tables {
		tbl, err := NewTables(Config{SingleSize: 6, MultipleSize: 4, CachingSize: 3, Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	outcomeObj := func(e *Entry) ids.ObjectID {
		if e == nil {
			return ^ids.ObjectID(0)
		}
		return e.Object
	}
	for _, backend := range []Backend{BackendBTree, BackendList} {
		t.Run(backend.String(), func(t *testing.T) {
			a, b := mk(BackendSlice), mk(backend)
			rng := rand.New(rand.NewSource(1234))
			for i := int64(1); i <= 30000; i++ {
				obj := ids.ObjectID(rng.Intn(60))
				loc := ids.NodeID(rng.Intn(5))
				oa := a.Update(obj, loc, i)
				ob := b.Update(obj, loc, i)
				if oa.From != ob.From || oa.To != ob.To {
					t.Fatalf("step %d: outcome mismatch %+v vs %+v", i, oa, ob)
				}
				if outcomeObj(oa.CacheEvicted) != outcomeObj(ob.CacheEvicted) ||
					outcomeObj(oa.MultipleEvicted) != outcomeObj(ob.MultipleEvicted) ||
					outcomeObj(oa.Dropped) != outcomeObj(ob.Dropped) {
					t.Fatalf("step %d: moved objects mismatch %+v vs %+v", i, oa, ob)
				}
				if a.IsCached(obj) != b.IsCached(obj) {
					t.Fatalf("step %d: IsCached mismatch for %v", i, obj)
				}
			}
			var da, db strings.Builder
			if err := a.Dump(&da, 30001); err != nil {
				t.Fatal(err)
			}
			if err := b.Dump(&db, 30001); err != nil {
				t.Fatal(err)
			}
			if da.String() != db.String() {
				t.Fatalf("final dumps differ:\n--- slice ---\n%s\n--- %s ---\n%s",
					da.String(), backend, db.String())
			}
		})
	}
}

func TestLookupSearchOrderPrefersCaching(t *testing.T) {
	// §IV.3: search order is caching, multiple, single. Lookup must
	// report the kind accordingly (an object can only be in one, but
	// the scan order is part of the spec).
	tbl := newTestTables(t, 4, 4, 4)
	tbl.Update(1, 0, 10)
	if _, kind := tbl.Lookup(1); kind != KindSingle {
		t.Errorf("kind = %v, want single", kind)
	}
	tbl.Update(1, 0, 20)
	if _, kind := tbl.Lookup(1); kind != KindMultiple {
		t.Errorf("kind = %v, want multiple", kind)
	}
	tbl.Update(1, 0, 30)
	if _, kind := tbl.Lookup(1); kind != KindCaching {
		t.Errorf("kind = %v, want caching", kind)
	}
}

func TestTablesLen(t *testing.T) {
	tbl := newTestTables(t, 4, 4, 4)
	tbl.Update(1, 0, 1)
	tbl.Update(2, 0, 2)
	tbl.Update(1, 0, 3) // promotes 1 to multiple
	if got := tbl.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

func TestCacheAdmitAllCachesEveryPassingObject(t *testing.T) {
	// Ablation (§III.4's comparison baseline): every passing object is
	// cached immediately with LRU replacement, so a one-timer displaces
	// a hot fresh object — the pollution selective caching prevents
	// (contrast TestUpdateColdObjectCannotEnterFullCache).
	tbl, err := NewTables(Config{
		SingleSize: 8, MultipleSize: 8, CachingSize: 1, CacheAdmitAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Update(1, 0, 10)
	if out.To != KindCaching || !tbl.IsCached(1) {
		t.Fatalf("first sighting must be cached immediately, got %+v", out)
	}
	out = tbl.Update(2, 0, 11) // a one-timer
	if !tbl.IsCached(2) || tbl.IsCached(1) {
		t.Error("LRU must cache the one-timer and evict the hot object")
	}
	if out.CacheEvicted == nil || out.CacheEvicted.Object != 1 {
		t.Errorf("CacheEvicted = %v, want object 1", out.CacheEvicted)
	}
	// The evicted entry keeps its routing info on the single-table.
	if _, kind := tbl.Lookup(1); kind != KindSingle {
		t.Errorf("evicted object in %v, want single", kind)
	}
}

func TestAgingOffKeepsStaleHotObjects(t *testing.T) {
	// Ablation: without aging, an object hot long ago keeps its slot
	// against a currently active object with a worse raw average —
	// the failure §III.4 aging prevents.
	tbl, err := NewTables(Config{
		SingleSize: 8, MultipleSize: 8, CachingSize: 1, AgingOff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, now := range []int64{10, 12, 14} { // avg 2, then idle forever
		tbl.Update(1, 0, now)
	}
	for _, now := range []int64{500, 1000, 1500, 2000} { // active, avg 500
		tbl.Update(2, 0, now)
	}
	if !tbl.IsCached(1) || tbl.IsCached(2) {
		t.Error("with aging off the stale object must keep its slot")
	}
	// Contrast: the default configuration expires it
	// (TestUpdateAgingExpiresIdleHotObject).
}

func TestDumpRendersPaperColumns(t *testing.T) {
	tbl := newTestTables(t, 4, 4, 4)
	tbl.Update(52, 4, 3356)
	var buf bytes.Buffer
	if err := tbl.Dump(&buf, 4000); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Caching Table", "Multiple-Table", "Single-Table",
		"OBJ-ID", "PROXY", "LAST", "AVG", "HITS",
		"www.xy52", "Proxy[4]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}
