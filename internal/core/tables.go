package core

import (
	"fmt"
	"math/rand/v2"
	"unsafe"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/prefetch"
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
	// the binary max-heap).
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
	if total := int64(c.SingleSize) + int64(c.MultipleSize) + int64(c.CachingSize); total >= maxEntries {
		return fmt.Errorf("core: table sizes sum to %d, want below %d", total, maxEntries)
	}
	switch c.Backend {
	case BackendBTree, BackendList:
	default:
		return fmt.Errorf("core: unknown ordered-table backend %d", int(c.Backend))
	}
	return nil
}

// maxEntries bounds the three capacities' sum: the directory's cells, twice
// that many, must stay addressable by a 32-bit tag.
const maxEntries = 1 << 30

// Tables is one proxy's complete mapping-table state: the single-, multiple-
// and caching tables plus the Update_Entry logic that moves entries between
// them (paper Fig. 8). Each table is an Ordered, held at the index of its
// Kind, and Fig. 8 is one rule over that array: an entry found in table k
// moves up to table k−1 when it beats that table's worst entry. The caching
// table doubles as the cache itself — its entries "represent actually
// stored objects" (§III.3.3); since the testbed does not move payloads
// (§V.1), membership is storage.
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
	// tables holds the caching, multiple- and single-table at the index
	// of their Kind; tables[KindNone] is nil.
	tables [KindSingle + 1]Ordered
	// single is tables[KindSingle], typed for Part 4's direct InsertTop.
	single *SingleTable

	// dir maps every known object to its arena entry: fixed capacity,
	// sized by NewTables for the three table capacities, with a hash seed
	// of its own that no result depends on. nil on BackendList.
	dir *directory
	// arena slab-allocates the entries the directory indexes and
	// recycles the ones the system forgets (Outcome.Dropped, via
	// Recycle). Unused on BackendList, whose entries are plain heap
	// allocations: without a directory nothing names them by ref.
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
	t := &Tables{
		single:   NewSingleTable(cfg.SingleSize),
		admitAll: cfg.CacheAdmitAll,
		agingOff: cfg.AgingOff,
	}
	t.tables = [...]Ordered{
		KindCaching:  NewOrdered(cfg.CachingSize, cfg.Backend),
		KindMultiple: NewOrdered(cfg.MultipleSize, cfg.Backend),
		KindSingle:   t.single,
	}
	if cfg.CacheAdmitAll {
		t.tables[KindCaching] = NewSingleTable(cfg.CachingSize)
	}
	if cfg.Backend != BackendList {
		// +1: a first sighting is indexed before the entry it pushes off
		// the single-table bottom is forgotten (Fig. 8 Part 4).
		t.dir = newDirectory(cfg.SingleSize+cfg.MultipleSize+cfg.CachingSize+1, dirSeed, &t.arena)
	}
	return t, nil
}

// Single exposes the single-table (read-mostly: dumps, tests, metrics).
func (t *Tables) Single() *SingleTable { return t.single }

// Multiple exposes the multiple-table.
func (t *Tables) Multiple() Ordered { return t.tables[KindMultiple] }

// Caching exposes the caching table.
func (t *Tables) Caching() Ordered { return t.tables[KindCaching] }

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
	for k := KindCaching; k <= KindSingle; k++ {
		if e := t.tables[k].Get(obj); e != nil {
			return e, k
		}
	}
	return nil, KindNone
}

// forget takes e — an entry that just left the last table that would hold
// it, or nil — out of the directory and returns its arena ref for
// arena.put; in probe mode there is none, and the ref is 0.
func (t *Tables) forget(e *Entry) entryRef {
	if e == nil {
		return 0
	}
	e.kind = KindNone
	if t.dir == nil {
		return 0
	}
	return t.dir.del(e.Object)
}

// pushTop puts e on top of the single-table and forgets the entry that
// falls off its bottom, if any, recording it in out for Recycle.
//
// A full single-table drops its bottom entry on every first sighting, so
// the next victim is known one eviction ahead: the new bottom. Its own line
// was just written, but the two its eviction will miss on are not, so
// pushTop starts loading them now (prefetch.Line, a pure hint): the bottom's
// predecessor, which the unlink rewrites, and the bottom's directory home
// cell, where forget's deletion starts.
func (t *Tables) pushTop(out *Outcome, e *Entry) {
	out.Dropped = t.single.InsertTop(e)
	out.dropped = t.forget(out.Dropped)
	if out.Dropped != nil && t.dir != nil {
		// A drop leaves the table full, and its capacity is positive
		// after Validate, so the bottom is an entry, not the sentinel.
		b := t.single.tail.prev
		prefetch.Line(unsafe.Pointer(b.prev))
		t.dir.prefetch(b.Object)
	}
}

// Prefetch starts loading obj's directory home cell, the line the first
// probe of a Lookup, IsCached, ForwardLocation or Update of obj misses on,
// so that a caller that knows the next object early can overlap the miss
// with other work. It is a hint: it changes nothing, so no result depends
// on it, and it reads only what is fixed for the tables' life (the
// directory's cells, mask and seed, never its population), so it may run
// while another goroutine updates the tables. It does nothing on
// BackendList, which has no directory, and on released tables.
func (t *Tables) Prefetch(obj ids.ObjectID) {
	if t.dir != nil {
		t.dir.prefetch(obj)
	}
}

// IsCached reports whether obj is in the local cache, i.e. has a caching-
// table entry.
func (t *Tables) IsCached(obj ids.ObjectID) bool {
	if t.dir != nil {
		e := t.dir.get(obj)
		return e != nil && e.kind == KindCaching
	}
	return t.tables[KindCaching].Contains(obj)
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
	// dropped is Dropped's arena ref, which Recycle returns to the
	// arena (0 on BackendList).
	dropped entryRef
}

// Update is the paper's Update_Entry(Object, Location) (Fig. 8), executed
// at proxy-local logical time now. It finds the entry (one directory probe,
// or table-order probes in the paper-faithful modes) and applies one
// promotion rule to whichever table k holds it (Parts 1–3): remove the
// entry from table k, fold in the new access via CalcAverage, rewrite the
// location; then, when table k−1 admits the entry, move it there, and the
// worst entry that makes room drops back into table k — a cached worst into
// the multiple-table, the multiple-table's worst onto the single-table top;
// otherwise put it back into table k. The caching table has no table above
// it, so its entries are updated in place. An unknown object gets a fresh
// entry on top of the single-table (Part 4).
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

	e, k := t.locate(obj)
	if k == KindNone {
		// Part 4: unknown object — new entry on top of the single-table.
		e = t.alloc(obj, loc, now)
		e.kind = KindSingle
		out := Outcome{From: KindNone, To: KindSingle}
		t.pushTop(&out, e)
		return out
	}

	// Parts 1–3. Table k has room for whatever goes back into it: e
	// just left it.
	from := t.tables[k]
	from.RemoveEntry(e)
	e.CalcAverage(now)
	e.Location = loc
	out := Outcome{From: k, To: k}
	if up := k - 1; up != KindNone && t.admits(t.tables[up], e) {
		out.To = up
		e.kind = up
		if evicted := t.tables[up].Insert(e); evicted != nil {
			from.Insert(evicted)
			evicted.kind = k
			if up == KindCaching {
				out.CacheEvicted = evicted
			} else {
				out.MultipleEvicted = evicted
			}
		}
		return out
	}
	from.Insert(e)
	return out
}

// updateLRU is the CacheAdmitAll ablation: every passing object is cached
// immediately with plain LRU replacement, no selectivity (the caching
// table is then a SingleTable). The entry is pulled from whichever table
// currently holds it so the usual bookkeeping (average, location,
// single-occupancy invariant) still applies; evictions land on top of the
// single-table so the proxy keeps routing knowledge.
func (t *Tables) updateLRU(obj ids.ObjectID, loc ids.NodeID, now int64) Outcome {
	e, from := t.locate(obj)
	if from == KindNone {
		e = t.alloc(obj, loc, now)
	} else {
		t.tables[from].RemoveEntry(e)
		e.CalcAverage(now)
		e.Location = loc
	}
	out := Outcome{From: from, To: KindCaching}
	e.kind = KindCaching
	// A full LRU cache drops its bottom entry, never the newcomer: its
	// capacity is positive after Validate.
	if evicted := t.tables[KindCaching].Insert(e); evicted != nil {
		out.CacheEvicted = evicted
		evicted.kind = KindSingle
		t.pushTop(&out, evicted)
	}
	return out
}

// alloc hands out a fresh entry from the arena, configured for this
// proxy's aging mode and indexed in the directory — the directory's only
// insert: from here until forget, the entry's ref stays in the directory.
// On BackendList it is a plain heap entry. The caller puts the entry in a
// table and sets its kind.
func (t *Tables) alloc(obj ids.ObjectID, loc ids.NodeID, now int64) *Entry {
	if t.dir == nil {
		e := NewEntry(obj, loc, now)
		e.noAge = t.agingOff
		return e
	}
	r, e := t.arena.take(obj, loc, now)
	e.noAge = t.agingOff
	t.dir.set(obj, r)
	return e
}

// Recycle returns the entries an Update expelled from the system to the
// arena for reuse. Call it after the last read of the outcome: the dropped
// entry is zeroed and may back a future allocation immediately (on
// BackendList, which has no arena, the collector takes it back instead).
func (t *Tables) Recycle(out Outcome) {
	t.arena.put(out.dropped)
}

// Release zeroes the tables' storage — directory cells, entry slabs and
// heap arrays — and hands it to shared pools, from which later NewTables
// calls of any goroutine draw, and clears t so that any later use panics
// instead of reading another run's state. Call it only when nothing will
// read these tables or their entries again; Release of a released Tables
// does nothing.
func (t *Tables) Release() {
	if t.dir != nil {
		t.dir.release()
	}
	t.arena.release()
	for _, o := range t.tables {
		if h, ok := o.(*heapTable); ok {
			h.release()
		}
	}
	*t = Tables{}
}

// admits reports whether ordered table dst accepts candidate e: a table
// with free space accepts anything; a full table demands the candidate beat
// the worst resident (strictly smaller aged average, i.e. Key). A
// zero-capacity table, full and empty at once, accepts nothing.
func (t *Tables) admits(dst Ordered, e *Entry) bool {
	if dst.Len() < dst.Cap() {
		return true
	}
	worst, ok := dst.WorstKey()
	return ok && e.Key() < worst
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
	if kind != KindMultiple && kind != KindSingle {
		return false
	}
	t.tables[kind].RemoveEntry(e)
	t.arena.put(t.forget(e))
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
	n := 0
	for _, o := range t.tables[KindCaching:] {
		n += o.Len()
	}
	return n
}

// CheckInvariants verifies what must hold between operations (DESIGN.md
// §10, items 1–3) and reports the first violation: every table within its
// capacity; the ordered tables in (Key, Object) order — a list ascending,
// a heap with no cell before a child of its, every key a heap cell stores
// inline still equal to its entry's and every entry recording its own
// cell; every object in exactly one table, with the entry's kind naming
// it; every replica set proxies only, ascending and without repeats; the
// directory holding exactly the entries the tables hold, each reachable
// from its home cell; and no entry on the arena's free list still in a
// table or still carrying a replica set. It walks all state — tests and
// debugging, not the request path.
func (t *Tables) CheckInvariants() error {
	seen := make(map[ids.ObjectID]*Entry, t.Len())
	for k := KindCaching; k <= KindSingle; k++ {
		if err := t.checkTable(seen, k); err != nil {
			return err
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
	for _, r := range t.arena.free {
		if f := t.arena.at(r); seen[f.Object] == f || f.kind != KindNone || f.prev != nil || f.next != nil || f.replicas != nil {
			return fmt.Errorf("arena free list holds a live entry (object %v, %v table, replicas %v)", f.Object, f.kind, f.Replicas())
		}
	}
	return nil
}

// checkTable is CheckInvariants for the table of one kind; seen collects
// the entries of the tables so far. The list and the heap also check their
// own order; the single-table orders by recency and has no order to check.
func (t *Tables) checkTable(seen map[ids.ObjectID]*Entry, kind Kind) error {
	tbl := t.tables[kind]
	if length, capacity := tbl.Len(), tbl.Cap(); length > capacity {
		return fmt.Errorf("%v table holds %d entries, capacity %d", kind, length, capacity)
	}
	var err error
	n := 0
	tbl.Each(func(e *Entry) bool {
		switch {
		case seen[e.Object] != nil:
			err = fmt.Errorf("object %v is in the %v and the %v table", e.Object, seen[e.Object].kind, kind)
		case e.kind != kind:
			err = fmt.Errorf("object %v is in the %v table, its entry says %v", e.Object, kind, e.kind)
		case t.dir != nil && t.dir.get(e.Object) != e:
			err = fmt.Errorf("directory does not map object %v to its %v-table entry", e.Object, kind)
		case !replicasValid(e):
			err = fmt.Errorf("object %v has replica set %v: want proxies, ascending, without repeats", e.Object, e.Replicas())
		}
		seen[e.Object] = e
		n++
		return err == nil
	})
	if err == nil && n != tbl.Len() {
		err = fmt.Errorf("%v table counts %d entries, holds %d", kind, tbl.Len(), n)
	}
	if c, ok := tbl.(interface{ check() error }); ok && err == nil {
		err = c.check()
	}
	return err
}
