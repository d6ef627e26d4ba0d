package core

import (
	"math/rand"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

func nodeSetEqual(a, b []ids.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInsertNodeKeepsSortedSet(t *testing.T) {
	var set []ids.NodeID
	for _, n := range []ids.NodeID{3, 1, 4, 1, 5, 3, 2} {
		set = InsertNode(set, n)
	}
	want := []ids.NodeID{1, 2, 3, 4, 5}
	if !nodeSetEqual(set, want) {
		t.Fatalf("set = %v, want %v", set, want)
	}
	for _, n := range want {
		if !ContainsNode(set, n) {
			t.Errorf("ContainsNode(%d) = false, want true", n)
		}
	}
	if ContainsNode(set, 0) || ContainsNode(set, 6) {
		t.Error("ContainsNode reports absent members")
	}
}

func TestForwardSetAndAddReplica(t *testing.T) {
	tbl := newTestTables(t, 4, 4, 4)
	tbl.Update(1, 2, 100)

	loc, reps, ok := tbl.ForwardSet(1)
	if !ok || loc != 2 || len(reps) != 0 {
		t.Fatalf("ForwardSet = (%v, %v, %v), want (2, [], true)", loc, reps, ok)
	}
	if _, _, ok := tbl.ForwardSet(99); ok {
		t.Fatal("ForwardSet(unknown) ok = true")
	}

	if !tbl.AddReplica(1, 3, 2) {
		t.Fatal("AddReplica(3) = false")
	}
	if tbl.AddReplica(1, 3, 2) {
		t.Error("AddReplica(duplicate) = true")
	}
	if tbl.AddReplica(1, 2, 2) {
		t.Error("AddReplica(Location) = true")
	}
	if tbl.AddReplica(1, ids.Origin, 2) {
		t.Error("AddReplica(origin) = true")
	}
	if !tbl.AddReplica(1, 0, 2) {
		t.Fatal("AddReplica(0) = false")
	}
	if tbl.AddReplica(1, 4, 2) {
		t.Error("AddReplica beyond max = true")
	}
	_, reps, _ = tbl.ForwardSet(1)
	if !nodeSetEqual(reps, []ids.NodeID{0, 3}) {
		t.Fatalf("replicas = %v, want [0 3]", reps)
	}
}

func TestSetReplicasFiltersAndBounds(t *testing.T) {
	tbl := newTestTables(t, 4, 4, 4)
	tbl.Update(1, 2, 100)

	// exclude=5 (self), Location=2, client and origin IDs must all drop;
	// max=2 truncates.
	in := []ids.NodeID{ids.Origin, 0, 1, 2, 3, 5, -12}
	if !tbl.SetReplicas(1, in, 5, 2) {
		t.Fatal("SetReplicas = false")
	}
	_, reps, _ := tbl.ForwardSet(1)
	if !nodeSetEqual(reps, []ids.NodeID{0, 1}) {
		t.Fatalf("replicas = %v, want [0 1]", reps)
	}

	// Empty replacement clears.
	if !tbl.SetReplicas(1, nil, 5, 2) {
		t.Fatal("SetReplicas(nil) = false")
	}
	if _, reps, _ := tbl.ForwardSet(1); reps != nil {
		t.Fatalf("replicas after clear = %v, want nil", reps)
	}

	if tbl.SetReplicas(99, in, 5, 2) {
		t.Error("SetReplicas(unknown) = true")
	}

	tbl.AddReplica(1, 3, 4)
	tbl.ClearReplicas(1)
	if _, reps, _ := tbl.ForwardSet(1); reps != nil {
		t.Fatalf("replicas after ClearReplicas = %v, want nil", reps)
	}
}

func TestForceCacheAdoptsUnknownObject(t *testing.T) {
	tbl := newTestTables(t, 4, 4, 4)
	out, adopted := tbl.ForceCache(7, 1, 50, 0)
	if !adopted {
		t.Fatal("ForceCache = not adopted")
	}
	if out.From != KindNone || out.To != KindCaching {
		t.Fatalf("outcome = %+v, want none→caching", out)
	}
	if !tbl.IsCached(7) {
		t.Fatal("object not cached after ForceCache")
	}
	e, kind := tbl.Lookup(7)
	if kind != KindCaching || e.Location != 1 || e.Hits != 1 {
		t.Fatalf("entry = %+v kind %v, want fresh caching entry at loc 1", e, kind)
	}
}

func TestForceCachePromotesFromSingleAndMultiple(t *testing.T) {
	tbl := newTestTables(t, 4, 4, 4)

	tbl.Update(1, 2, 100) // → single
	out, adopted := tbl.ForceCache(1, 3, 110, 0)
	if !adopted || out.From != KindSingle || out.To != KindCaching {
		t.Fatalf("outcome = %+v adopted=%v, want single→caching", out, adopted)
	}
	e, _ := tbl.Lookup(1)
	if e.Location != 3 || e.Hits != 2 {
		t.Fatalf("entry = %+v, want loc 3 hits 2", e)
	}

	tbl.Update(2, 2, 120)
	tbl.Update(2, 2, 121) // → multiple
	if _, kind := tbl.Lookup(2); kind != KindMultiple {
		t.Fatalf("setup: object 2 kind = %v, want multiple", kind)
	}
	out, adopted = tbl.ForceCache(2, 4, 130, 0)
	if !adopted || out.From != KindMultiple || out.To != KindCaching {
		t.Fatalf("outcome = %+v adopted=%v, want multiple→caching", out, adopted)
	}
	if !tbl.IsCached(2) {
		t.Fatal("object 2 not cached")
	}
}

func TestForceCacheRefreshesCachedEntry(t *testing.T) {
	tbl := newTestTables(t, 4, 4, 4)
	tbl.ForceCache(1, 2, 100, 0)
	out, adopted := tbl.ForceCache(1, 3, 150, 0)
	if !adopted || out.From != KindCaching || out.To != KindCaching {
		t.Fatalf("outcome = %+v adopted=%v, want caching→caching", out, adopted)
	}
	e, _ := tbl.Lookup(1)
	if e.Location != 3 || e.Hits != 2 {
		t.Fatalf("entry = %+v, want loc 3 hits 2", e)
	}
	if tbl.Caching().Len() != 1 {
		t.Fatalf("caching len = %d, want 1", tbl.Caching().Len())
	}
}

func TestForceCacheEvictsWorstResident(t *testing.T) {
	tbl := newTestTables(t, 8, 8, 2)
	// Fill the cache with two hot residents.
	for now := int64(0); now < 20; now += 2 {
		tbl.Update(1, 1, now)
		tbl.Update(2, 1, now+1)
	}
	if tbl.Caching().Len() != 2 {
		t.Fatalf("setup: caching len = %d, want 2", tbl.Caching().Len())
	}
	// Force in a third, hotter-than-worst object (fresh entry at a late
	// time has key avg−last strongly negative).
	out, adopted := tbl.ForceCache(3, 1, 1000, 0)
	if !adopted {
		t.Fatal("ForceCache = not adopted")
	}
	if out.CacheEvicted == nil {
		t.Fatal("no resident evicted from a full cache")
	}
	if _, kind := tbl.Lookup(out.CacheEvicted.Object); kind != KindSingle {
		t.Fatalf("evicted resident kind = %v, want single (demoted)", kind)
	}
	if !tbl.IsCached(3) {
		t.Fatal("forced object not cached")
	}
	tbl.Recycle(out)
}

func TestForceCacheBounceRevertsAdoption(t *testing.T) {
	tbl := newTestTables(t, 8, 8, 2)
	// Residents with strongly negative keys (hot, recent).
	for now := int64(0); now < 1000; now++ {
		tbl.Update(1, 1, now)
		tbl.Update(2, 1, now)
	}
	// A cold candidate seen long ago: huge avg, stale last ⇒ worst key.
	tbl.Update(3, 1, 1)
	tbl.Update(3, 1, 500) // avg 499, last 500 ⇒ key ≈ −1
	e3, kind := tbl.Lookup(3)
	if kind == KindCaching {
		t.Fatal("setup: candidate already cached")
	}
	worst, _ := tbl.Caching().WorstKey()
	if e3.Key() < worst {
		t.Skipf("setup: candidate key %d beats worst %d", e3.Key(), worst)
	}
	from := kind
	out, adopted := tbl.ForceCache(3, 2, 501, 0)
	if adopted {
		t.Fatal("ForceCache adopted into a cache of strictly hotter residents")
	}
	if out.To != from {
		t.Fatalf("bounced entry landed in %v, want back in %v", out.To, from)
	}
	if _, kind := tbl.Lookup(3); kind != from {
		t.Fatalf("Lookup kind = %v, want %v", kind, from)
	}
	if tbl.IsCached(3) {
		t.Fatal("bounced object reported cached")
	}
}

func TestForceCacheBounceForgetsUnknownWhenCacheHot(t *testing.T) {
	tbl := newTestTables(t, 2, 2, 1)
	for now := int64(0); now < 1000; now++ {
		tbl.Update(1, 1, now)
	}
	// Force an unknown object at a time far in the past of the resident's
	// activity: its fresh key (0 − now) must lose to the resident.
	e1, _ := tbl.Lookup(1)
	out, adopted := tbl.ForceCache(9, 2, 3, 0)
	if adopted {
		// Key comparison depends on table state; if adopted the
		// resident must have been demoted, which is also valid.
		if out.CacheEvicted == nil {
			t.Fatal("adopted into full cache without eviction")
		}
		return
	}
	// Bounced fresh entry falls back onto the single-table top.
	if out.To != KindSingle {
		t.Fatalf("bounced fresh entry To = %v, want single", out.To)
	}
	if _, kind := tbl.Lookup(9); kind != KindSingle {
		t.Fatalf("Lookup(9) kind = %v, want single", kind)
	}
	if e1p, kind := tbl.Lookup(1); kind != KindCaching || e1p != e1 {
		t.Fatal("resident disturbed by bounced force")
	}
}

func TestDropCachedDemotesToSingleTop(t *testing.T) {
	tbl := newTestTables(t, 4, 4, 4)
	tbl.ForceCache(1, 2, 100, 0)
	tbl.AddReplica(1, 3, 4)

	out, dropped := tbl.DropCached(1, 0)
	if !dropped {
		t.Fatal("DropCached = false")
	}
	if out.From != KindCaching || out.To != KindSingle {
		t.Fatalf("outcome = %+v, want caching→single", out)
	}
	if tbl.IsCached(1) {
		t.Fatal("object still cached after DropCached")
	}
	e, kind := tbl.Lookup(1)
	if kind != KindSingle {
		t.Fatalf("kind = %v, want single", kind)
	}
	if e.Location != 0 {
		t.Fatalf("location = %v, want fallback 0", e.Location)
	}
	if e.Replicas() != nil {
		t.Fatalf("replicas = %v, want nil", e.Replicas())
	}

	if _, dropped := tbl.DropCached(1, 0); dropped {
		t.Error("DropCached on non-cached object = true")
	}
	if _, dropped := tbl.DropCached(99, 0); dropped {
		t.Error("DropCached on unknown object = true")
	}
}

func TestDropCachedKeepsLocationWithoutProxyFallback(t *testing.T) {
	tbl := newTestTables(t, 4, 4, 4)
	tbl.ForceCache(1, 2, 100, 0)
	tbl.DropCached(1, ids.None)
	e, _ := tbl.Lookup(1)
	if e.Location != 2 {
		t.Fatalf("location = %v, want original 2 (no proxy fallback)", e.Location)
	}
}

func TestRecycledEntryHasNoReplicas(t *testing.T) {
	tbl := newTestTables(t, 1, 1, 1)
	tbl.Update(1, 2, 100)
	tbl.AddReplica(1, 3, 4)
	// Drop object 1 off the single-table bottom with a new arrival.
	out := tbl.Update(2, 2, 101)
	if out.Dropped == nil || out.Dropped.Object != 1 {
		t.Fatalf("setup: dropped = %+v, want object 1", out.Dropped)
	}
	tbl.Recycle(out)
	// The recycled slot backs the next allocation; it must come out clean.
	out2 := tbl.Update(3, 2, 102)
	tbl.Recycle(out2)
	e, _ := tbl.Lookup(3)
	if e.Replicas() != nil {
		t.Fatalf("recycled entry carries stale replicas %v", e.Replicas())
	}
}

// churnOp is one random table operation, drawn once so that several Tables
// can be fed the identical stream.
type churnOp struct {
	kind int // 0 ForceCache, 1 DropCached, 2 Invalidate, else Update
	obj  ids.ObjectID
	loc  ids.NodeID
	hint int64
}

func randomChurnOp(rng *rand.Rand, universe int) churnOp {
	return churnOp{
		kind: rng.Intn(10),
		obj:  ids.ObjectID(rng.Intn(universe)),
		loc:  ids.NodeID(rng.Intn(5)),
		hint: int64(rng.Intn(3) * 7),
	}
}

// churnResult is an operation's outcome flattened to comparable values
// (objects, not entry pointers).
type churnResult struct {
	from, to                               Kind
	ok                                     bool
	cacheEvicted, multipleEvicted, dropped ids.ObjectID
}

func objOf(e *Entry) ids.ObjectID {
	if e == nil {
		return noObj
	}
	return e.Object
}

func (op churnOp) apply(tbl *Tables, now int64) churnResult {
	var out Outcome
	ok := true
	switch op.kind {
	case 0:
		out, ok = tbl.ForceCache(op.obj, op.loc, now, op.hint)
	case 1:
		out, ok = tbl.DropCached(op.obj, op.loc)
	case 2:
		ok = tbl.Invalidate(op.obj)
	default:
		out = tbl.Update(op.obj, op.loc, now)
	}
	res := churnResult{out.From, out.To, ok, objOf(out.CacheEvicted), objOf(out.MultipleEvicted), objOf(out.Dropped)}
	tbl.Recycle(out)
	return res
}

// TestReplicaChurnKeepsInvariants mixes the replication and recovery entry
// points (ForceCache, DropCached, Invalidate) into an Update stream and
// checks every invariant after every operation, with and without the
// directory.
func TestReplicaChurnKeepsInvariants(t *testing.T) {
	cases := map[string]Config{
		"btree":     {Backend: BackendBTree},
		"list":      {Backend: BackendList},
		"admit-all": {CacheAdmitAll: true},
		// single-scan: the paper-faithful element-wise probe path
		// (BackendList, which replaced Config.SingleScan) under admit-all.
		"single-scan": {Backend: BackendList, CacheAdmitAll: true},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			cfg.SingleSize, cfg.MultipleSize, cfg.CachingSize = 8, 5, 3
			tbl, err := NewTables(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			for now := int64(1); now <= 20000; now++ {
				op := randomChurnOp(rng, 40)
				op.apply(tbl, now)
				if err := tbl.CheckInvariants(); err != nil {
					t.Fatalf("step %d (%+v): %v", now, op, err)
				}
			}
		})
	}
}
