package core

import (
	"fmt"
	"math/rand/v2"

	"github.com/adc-sim/adc/internal/ids"
)

// Config sizes and shapes one proxy's mapping tables. The paper's reference
// configuration is 20k/20k/10k (§V.2).
type Config struct {
	// SingleSize is the single-table capacity (first sightings).
	SingleSize int
	// MultipleSize is the multiple-table capacity (objects seen ≥2×).
	MultipleSize int
	// CachingSize is the caching-table capacity — the local cache size.
	CachingSize int
	// Backend selects the ordered-table implementation (default: btree,
	// the bounded block B-tree).
	Backend Backend
	// CacheAdmitAll replaces selective caching with the behaviour the
	// paper ascribes to hierarchical and hashing systems: "every proxy
	// stores all passing objects regardless of its future significance
	// and usually uses the LRU algorithm as the cache replacement
	// strategy" (§III.4). Every Update puts the object straight into an
	// LRU caching table; evicted entries fall back into the
	// single-table so forwarding information survives eviction.
	// Ablation only.
	CacheAdmitAll bool
	// AgingOff disables the aging rule of Fig. 4: tables order by raw
	// average instead of aged average. Ablation only.
	AgingOff bool
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	if c.SingleSize <= 0 {
		return fmt.Errorf("core: single-table size must be positive, got %d", c.SingleSize)
	}
	if c.MultipleSize <= 0 {
		return fmt.Errorf("core: multiple-table size must be positive, got %d", c.MultipleSize)
	}
	if c.CachingSize <= 0 {
		return fmt.Errorf("core: caching-table size must be positive, got %d", c.CachingSize)
	}
	switch c.Backend {
	case BackendBTree, BackendSlice, BackendList:
	default:
		return fmt.Errorf("core: unknown ordered-table backend %d", int(c.Backend))
	}
	return nil
}

// Tables is one proxy's complete mapping-table state: the single-, multiple-
// and caching tables plus the Update_Entry logic that moves entries between
// them (paper Fig. 8). The caching table doubles as the cache itself — its
// entries "represent actually stored objects" (§III.3.3); since the testbed
// does not move payloads (§V.1), membership is storage.
//
// A unified directory (one flat hash table over all three tables) resolves
// every membership question — Lookup, IsCached, ForwardLocation and the
// find phase of Update — with exactly one probe; which table holds the
// entry is the entry's own kind field, so moving an entry between tables
// never touches the directory. The tables themselves keep no per-table
// index and are touched only by position (RemoveEntry, Insert). The
// directory is disabled on the paper-faithful BackendList, so the Fig. 15
// ablation measures element-wise search in every table exactly as the
// paper did. CheckInvariants states what must hold between the
// tables, the directory and the arena.
type Tables struct {
	single   *SingleTable
	multiple Ordered
	caching  Ordered

	// dir maps every known object to its entry: fixed capacity, sized by
	// NewTables for the three table capacities, with a hash seed of its
	// own that no result depends on. nil on BackendList.
	dir *directory
	// arena slab-allocates entries and recycles the ones the system
	// forgets (Outcome.Dropped, via Recycle).
	arena entryArena

	admitAll bool
	agingOff bool
}

// NewTables builds the three tables for one proxy.
func NewTables(cfg Config) (*Tables, error) {
	return newTables(cfg, rand.Uint64())
}

// newTables is NewTables with the directory's hash seed given, which only
// tests need: they replay fuzz inputs and aim keys at one cell.
func newTables(cfg Config, dirSeed uint64) (*Tables, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	caching := NewOrdered(cfg.CachingSize, cfg.Backend)
	if cfg.CacheAdmitAll {
		caching = newLRUOrdered(cfg.CachingSize)
	}
	t := &Tables{
		single:   NewSingleTable(cfg.SingleSize),
		multiple: NewOrdered(cfg.MultipleSize, cfg.Backend),
		caching:  caching,
		admitAll: cfg.CacheAdmitAll,
		agingOff: cfg.AgingOff,
	}
	if cfg.Backend != BackendList {
		// +1: a first sighting is indexed before the entry it pushes off
		// the single-table bottom is forgotten (Fig. 8 Part 4).
		t.dir = newDirectory(cfg.SingleSize+cfg.MultipleSize+cfg.CachingSize+1, dirSeed)
	}
	return t, nil
}

// Single exposes the single-table (read-mostly: dumps, tests, metrics).
func (t *Tables) Single() *SingleTable { return t.single }

// Multiple exposes the multiple-table.
func (t *Tables) Multiple() Ordered { return t.multiple }

// Caching exposes the caching table.
func (t *Tables) Caching() Ordered { return t.caching }

// locate finds the entry for obj and the table holding it: one directory
// probe, or — in the paper-faithful modes — sequential probes "in the order
// caching table, multiple-table and single-table" (§IV.3).
func (t *Tables) locate(obj ids.ObjectID) (*Entry, Kind) {
	if t.dir != nil {
		if e := t.dir.get(obj); e != nil {
			return e, e.kind
		}
		return nil, KindNone
	}
	if e := t.caching.Get(obj); e != nil {
		return e, KindCaching
	}
	if e := t.multiple.Get(obj); e != nil {
		return e, KindMultiple
	}
	if e := t.single.Get(obj); e != nil {
		return e, KindSingle
	}
	return nil, KindNone
}

// forget takes e — an entry that just left the last table that would hold
// it, or nil — out of the directory; in probe mode there is none.
func (t *Tables) forget(e *Entry) {
	if e == nil {
		return
	}
	e.kind = KindNone
	if t.dir != nil {
		t.dir.del(e.Object)
	}
}

// IsCached reports whether obj is in the local cache, i.e. has a caching-
// table entry.
func (t *Tables) IsCached(obj ids.ObjectID) bool {
	if t.dir != nil {
		e := t.dir.get(obj)
		return e != nil && e.kind == KindCaching
	}
	return t.caching.Contains(obj)
}

// Lookup finds the entry for obj, searching "in the order caching table,
// multiple-table and single-table" (§IV.3). It never mutates state.
func (t *Tables) Lookup(obj ids.ObjectID) (*Entry, Kind) {
	return t.locate(obj)
}

// Outcome reports what Update did, so the proxy can maintain its counters
// and tests can assert the promotion/demotion chains.
type Outcome struct {
	// From is the table the entry was found in; KindNone means a new
	// entry was created (Part 4).
	From Kind
	// To is the table the entry ended up in.
	To Kind
	// CacheEvicted is the entry demoted from the caching table into the
	// multiple-table to make room, if any.
	CacheEvicted *Entry
	// MultipleEvicted is the entry demoted from the multiple-table onto
	// the top of the single-table to make room, if any.
	MultipleEvicted *Entry
	// Dropped is the entry that fell off the bottom of the single-table,
	// if any; the system forgets it entirely. Hand the outcome to
	// Recycle once the caller is done reading it so the entry returns
	// to the arena.
	Dropped *Entry
}

// Update is the paper's Update_Entry(Object, Location) (Fig. 8), executed
// at proxy-local logical time now. It finds the entry (one directory probe,
// or table-order probes in the paper-faithful modes), folds in the new
// access via CalcAverage, rewrites the location, and applies the promotion
// rules:
//
//   - caching-table entries are updated in place (re-inserted in order);
//   - multiple-table entries move into the caching table when their aged
//     average beats the cache's worst case, demoting that worst case into
//     the multiple-table;
//   - single-table entries move into the multiple-table under the same
//     rule, demoting the multiple-table's worst onto the single-table top;
//   - unknown objects get a fresh entry on top of the single-table.
//
// A table that is not yet full accepts any candidate; a full table demands
// the candidate beat its current worst entry, matching "newly arriving
// objects have to have a lower average value than the worst case currently
// residing in the table" (§III.3.2).
//
// Entries are always removed from their table before CalcAverage mutates
// the key: position-based removal (RemoveEntry) locates the entry by its
// stored key.
func (t *Tables) Update(obj ids.ObjectID, loc ids.NodeID, now int64) Outcome {
	if t.admitAll {
		return t.updateLRU(obj, loc, now)
	}

	e, kind := t.locate(obj)
	switch kind {
	case KindCaching:
		// Part 1: caching table — update in place.
		t.caching.RemoveEntry(e)
		e.CalcAverage(now)
		e.Location = loc
		t.caching.Insert(e) // room is guaranteed: we just removed e
		return Outcome{From: KindCaching, To: KindCaching}

	case KindMultiple:
		// Part 2: multiple-table.
		t.multiple.RemoveEntry(e)
		e.CalcAverage(now)
		e.Location = loc
		if t.admits(t.caching, e) {
			out := Outcome{From: KindMultiple, To: KindCaching}
			e.kind = KindCaching
			if evicted := t.caching.Insert(e); evicted != nil {
				// The demoted worst returns to the
				// multiple-table, which has room because e
				// just left it.
				t.multiple.Insert(evicted)
				evicted.kind = KindMultiple
				out.CacheEvicted = evicted
			}
			return out
		}
		t.multiple.Insert(e)
		return Outcome{From: KindMultiple, To: KindMultiple}

	case KindSingle:
		// Part 3: single-table.
		t.single.RemoveEntry(e)
		e.CalcAverage(now)
		e.Location = loc
		if t.admits(t.multiple, e) {
			out := Outcome{From: KindSingle, To: KindMultiple}
			e.kind = KindMultiple
			if evicted := t.multiple.Insert(e); evicted != nil {
				// The multiple-table's worst goes on top of
				// the single-table (Fig. 8 Part 3); the
				// single-table has room because e just left.
				t.single.InsertTop(evicted)
				evicted.kind = KindSingle
				out.MultipleEvicted = evicted
			}
			return out
		}
		dropped := t.single.InsertTop(e)
		return Outcome{From: KindSingle, To: KindSingle, Dropped: dropped}
	}

	// Part 4: unknown object — new entry on top of the single-table.
	e = t.alloc(obj, loc, now)
	e.kind = KindSingle
	dropped := t.single.InsertTop(e)
	t.forget(dropped)
	return Outcome{From: KindNone, To: KindSingle, Dropped: dropped}
}

// updateLRU is the CacheAdmitAll ablation: every passing object is cached
// immediately with plain LRU replacement, no selectivity. The entry is
// pulled from whichever table currently holds it so the usual bookkeeping
// (average, location, single-occupancy invariant) still applies; evictions
// land on top of the single-table so the proxy keeps routing knowledge.
func (t *Tables) updateLRU(obj ids.ObjectID, loc ids.NodeID, now int64) Outcome {
	e, from := t.locate(obj)
	switch from {
	case KindCaching:
		t.caching.RemoveEntry(e)
	case KindMultiple:
		t.multiple.RemoveEntry(e)
	case KindSingle:
		t.single.RemoveEntry(e)
	default:
		e = t.alloc(obj, loc, now)
	}
	if from != KindNone {
		e.CalcAverage(now)
		e.Location = loc
	}
	out := Outcome{From: from, To: KindCaching}
	e.kind = KindCaching
	if evicted := t.caching.Insert(e); evicted != nil {
		if evicted == e {
			// Zero-capacity cache bounced the entry itself; the
			// system forgets it (unreachable after Validate).
			t.forget(e)
			return out
		}
		out.CacheEvicted = evicted
		evicted.kind = KindSingle
		out.Dropped = t.single.InsertTop(evicted)
		t.forget(out.Dropped)
	}
	return out
}

// alloc hands out a fresh entry from the arena, configured for this
// proxy's aging mode and indexed in the directory — the directory's only
// insert: from here until forget, the entry's cell never changes. The
// caller puts the entry in a table and sets its kind.
func (t *Tables) alloc(obj ids.ObjectID, loc ids.NodeID, now int64) *Entry {
	e := t.arena.get(obj, loc, now)
	e.noAge = t.agingOff
	if t.dir != nil {
		t.dir.set(obj, e)
	}
	return e
}

// Recycle returns the entries an Update expelled from the system to the
// arena for reuse. Call it after the last read of the outcome: the dropped
// entry is zeroed and may back a future allocation immediately.
func (t *Tables) Recycle(out Outcome) {
	if out.Dropped != nil {
		t.arena.put(out.Dropped)
	}
}

// admits reports whether ordered table dst accepts candidate e: a table
// with free space accepts anything; a full table demands the candidate beat
// the worst resident (strictly smaller aged average, i.e. Key).
func (t *Tables) admits(dst Ordered, e *Entry) bool {
	if dst.Cap() == 0 {
		return false
	}
	if dst.Len() < dst.Cap() {
		return true
	}
	worst, ok := dst.WorstKey()
	if !ok {
		return true
	}
	return e.Key() < worst
}

// Invalidate forgets obj's mapping entry when it lives in the single- or
// multiple-table, returning whether an entry was removed. It is the
// demotion half of the recovery protocol's stale-location handling: a
// learned location that stopped answering (crashed or partitioned peer) is
// dropped so forwarding falls back to random selection and backwarding can
// re-converge on a live resolver. Caching-table entries are untouched —
// they represent objects stored locally, whose data is valid regardless of
// what happened to a remote peer.
func (t *Tables) Invalidate(obj ids.ObjectID) bool {
	e, kind := t.locate(obj)
	switch kind {
	case KindSingle:
		t.single.RemoveEntry(e)
	case KindMultiple:
		t.multiple.RemoveEntry(e)
	default:
		return false
	}
	t.forget(e)
	t.arena.put(e)
	return true
}

// ForwardLocation resolves the forwarding address for obj from the mapping
// tables (the paper's Forward_Addr, Fig. 6). ok is false when no table has
// an entry, in which case the proxy falls back to random peer selection.
func (t *Tables) ForwardLocation(obj ids.ObjectID) (ids.NodeID, bool) {
	e, kind := t.locate(obj)
	if kind == KindNone {
		return ids.None, false
	}
	return e.Location, true
}

// Len returns the total number of entries across the three tables.
func (t *Tables) Len() int {
	return t.single.Len() + t.multiple.Len() + t.caching.Len()
}

// CheckInvariants verifies what must hold between operations (DESIGN.md
// §10, items 1–3) and reports the first violation: every table within its
// capacity; the ordered tables ascending by (Key, Object), and every key a
// btree block stores inline still equal to its entry's; every object in
// exactly one table, with the entry's kind naming it; the directory holding
// exactly the entries the tables hold, each reachable from its home cell;
// and no entry on the arena's free list still in a table. It walks all
// state — tests and debugging, not the request path.
func (t *Tables) CheckInvariants() error {
	seen := make(map[ids.ObjectID]*Entry, t.Len())
	for _, tb := range []struct {
		kind             Kind
		length, capacity int
		sorted           bool // the admit-all cache orders by recency, not by key
		each             func(func(*Entry) bool)
	}{
		{KindCaching, t.caching.Len(), t.caching.Cap(), !t.admitAll, t.caching.Each},
		{KindMultiple, t.multiple.Len(), t.multiple.Cap(), true, t.multiple.Each},
		{KindSingle, t.single.Len(), t.single.Cap(), false, t.single.Each},
	} {
		if err := t.checkTable(seen, tb.kind, tb.length, tb.capacity, tb.sorted, tb.each); err != nil {
			return err
		}
	}
	for _, o := range []Ordered{t.caching, t.multiple} {
		if bt, ok := o.(*btreeTable); ok {
			if err := bt.check(); err != nil {
				return err
			}
		}
	}
	if t.dir != nil {
		if err := t.dir.check(); err != nil {
			return err
		}
		// Every table entry was found in the directory, so equal counts
		// leave no cell that points anywhere else.
		if t.dir.n != len(seen) {
			return fmt.Errorf("directory holds %d objects, the tables %d", t.dir.n, len(seen))
		}
	}
	for _, f := range t.arena.free {
		if seen[f.Object] == f || f.kind != KindNone || f.prev != nil || f.next != nil {
			return fmt.Errorf("arena free list holds a live entry (object %v, %v table)", f.Object, f.kind)
		}
	}
	return nil
}

// checkTable is CheckInvariants for one table, given as its kind, length,
// capacity and iterator; seen collects the entries of the tables so far.
func (t *Tables) checkTable(seen map[ids.ObjectID]*Entry, kind Kind, length, capacity int, sorted bool, each func(func(*Entry) bool)) error {
	if length > capacity {
		return fmt.Errorf("%v table holds %d entries, capacity %d", kind, length, capacity)
	}
	var err error
	var prev *Entry
	n := 0
	each(func(e *Entry) bool {
		switch {
		case seen[e.Object] != nil:
			err = fmt.Errorf("object %v is in the %v and the %v table", e.Object, seen[e.Object].kind, kind)
		case e.kind != kind:
			err = fmt.Errorf("object %v is in the %v table, its entry says %v", e.Object, kind, e.kind)
		case sorted && prev != nil && !less(prev, e):
			err = fmt.Errorf("%v table out of order at object %v", kind, e.Object)
		case t.dir != nil && t.dir.get(e.Object) != e:
			err = fmt.Errorf("directory does not map object %v to its %v-table entry", e.Object, kind)
		}
		seen[e.Object], prev = e, e
		n++
		return err == nil
	})
	if err == nil && n != length {
		err = fmt.Errorf("%v table counts %d entries, holds %d", kind, length, n)
	}
	return err
}
