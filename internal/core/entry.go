// Package core implements the data structures at the heart of Adaptive
// Distributed Caching: the mapping-table entry with its two-request moving
// average (paper Fig. 9), the aging rule (Fig. 4), the LRU single-table
// (§III.3.1), the ordered multiple- and caching tables (§III.3.2–3.3), and
// the Update_Entry procedure that ties them together (Fig. 8).
//
// # Three tables, one rule
//
// All three tables are Ordered: a bounded table that names its worst entry
// and evicts it when an insert overfills it. The single-table orders by
// recency, the multiple- and caching tables by aged average, on a binary
// max-heap or on the paper's sorted list. Both list-shaped tables, the
// single-table and the sorted list, are one intrusive list with the insert
// position as their only difference. Tables holds the three by Kind, and
// Update applies one promotion rule at both boundaries: an entry found in a
// table moves up when it beats the next table's worst, and that worst drops
// back into the table the entry left.
//
// # Time
//
// All times are logical: each proxy's local clock is "the counter for the
// received requests" (§IV.1), an int64 that increments once per incoming
// request. Averages are therefore measured in requests, not seconds.
//
// # Aging without re-sorting
//
// The paper ages every entry by T_age = (T_avg + (T_now − T_last)) / 2 and
// observes that "all objects age at the same pace and an established table
// order remains the same during the aging process" (§III.4). That holds
// because comparing aged values at a common instant `now`,
//
//	avg₁ + (now − last₁)  <  avg₂ + (now − last₂)
//	           ⇕
//	   avg₁ − last₁       <     avg₂ − last₂
//
// so the static key avg − last orders entries identically at every instant.
// The ordered tables sort by that key and never need re-sorting as time
// advances; only an update to an entry (which changes avg and last) requires
// a remove-and-reinsert.
package core

import (
	"fmt"
	"math"

	"github.com/adc-sim/adc/internal/ids"
)

// Entry is one row of a mapping table, mirroring the columns of the paper's
// sample tables (Figs. 1–3): OBJ-ID, PROXY, LAST, AVG, HITS.
//
// Avg and Last (through Key) decide where an ordered table stores the
// entry, and the default backend keeps a copy of the key beside its
// pointer: never assign either while the entry sits in an ordered table.
// 64 bytes, one cache line: Location, noAge and kind share one word, Hits
// and the heap index another, and the replica set, which only the
// replication extension fills, sits behind one pointer. The unexported
// fields are the owning Tables' bookkeeping.
type Entry struct {
	// Object is the mapped object ID (the paper's URL column).
	Object ids.ObjectID

	// Location is the proxy this object is mapped to. When it equals the
	// owning proxy's own ID it plays the paper's "THIS" role: the proxy
	// is responsible for the object and forwards unresolved requests for
	// it to the origin server (§III.3.2).
	Location ids.NodeID

	// noAge freezes the aging term in Key for the aging-off ablation
	// (Config.AgingOff); entries of one proxy all share the setting.
	noAge bool

	// kind is the table of the owning Tables that currently holds the
	// entry (KindNone while it is in none). It shares Location's word,
	// so the unified directory needs no kind of its own and moving an
	// entry between tables is this one field write.
	kind Kind

	// Last is the proxy-local logical time of the most recent request
	// for this object (the LAST column).
	Last int64

	// Avg is the moving average of the inter-request time over the last
	// two requests (the AVG column). 0 until the second request.
	Avg int64

	// Hits counts how many times the object has been requested here,
	// saturating at math.MaxInt32; decisions read only whether it is at
	// most 1 or 2.
	Hits int32

	// heap is the entry's cell in the heap backend's array while that
	// table holds it.
	heap int32

	// replicas holds the replica set (see Replicas); nil while the set
	// is empty, which in stock ADC is always.
	replicas *[]ids.NodeID

	// prev/next are intrusive list links used by whichever list-shaped
	// table currently holds the entry (a single-table, which is also the
	// admit-all ablation's caching table, or the paper-faithful sorted
	// list backend).
	// An entry lives in at most one table at a time, so one pair of
	// links suffices and no per-table node allocation is ever needed.
	// Unlinking always nils them.
	prev, next *Entry
}

// Replicas returns the bounded set of additional proxies known to hold the
// object, beyond Location — the hot-object replication extension (nil in
// stock ADC, where backwarding converges every object to one location). The
// set is kept sorted ascending without repeats, so routing and
// advertisement stay deterministic. SetReplicas and AddReplica never add
// Location, but a later change of Location can leave it in the set. The
// set does not participate in Key, so Tables may change it while the entry
// sits in an ordered table. The slice is the entry's own: callers must not
// mutate it.
func (e *Entry) Replicas() []ids.NodeID {
	if e.replicas == nil {
		return nil
	}
	return *e.replicas
}

// setReplicas makes set the entry's replica set. The first non-empty set
// allocates the pointer's target; later ones reuse it.
func (e *Entry) setReplicas(set []ids.NodeID) {
	if len(set) == 0 {
		e.replicas = nil
		return
	}
	if e.replicas == nil {
		e.replicas = new([]ids.NodeID)
	}
	*e.replicas = set
}

// NewEntry creates a first-sighting entry, initialized exactly as the
// paper's Part 4 of Update_Entry: AVG 0, HITS 1, LAST = now.
func NewEntry(obj ids.ObjectID, loc ids.NodeID, now int64) *Entry {
	return &Entry{Object: obj, Location: loc, Last: now, Avg: 0, Hits: 1}
}

// CalcAverage folds the current access at logical time now into the entry,
// following the paper's Calc_Average (Fig. 9): the second access seeds the
// average with the raw gap; later accesses use the two-point moving average
// (avg + gap) / 2. It finishes by stamping LAST and counting the hit.
func (e *Entry) CalcAverage(now int64) {
	gap := now - e.Last
	if e.Hits <= 1 {
		e.Avg = gap
	} else {
		e.Avg = (e.Avg + gap) / 2
	}
	if e.Hits < math.MaxInt32 {
		e.Hits++
	}
	e.Last = now
}

// Key is the static sort key avg − last (see the package comment); smaller
// keys mean more frequently requested, fresher objects. Ordered tables sort
// ascending by Key, so the "worst case currently residing in the table"
// (§III.4) is the entry with the largest Key.
//
// The key must not change while an entry is stored in an ordered table;
// Tables always removes an entry before mutating it.
//
// With aging disabled (the ablation) the key is the raw average: objects
// hot in the distant past then never expire, which is exactly the failure
// mode §III.4's aging rule exists to prevent.
func (e *Entry) Key() int64 {
	if e.noAge {
		return e.Avg
	}
	return e.Avg - e.Last
}

// AgedAverage evaluates the paper's aging formula (Fig. 4) at time now:
// (avg + (now − last)) / 2. It is what table dumps display; ordering by it
// is equivalent to ordering by Key.
func (e *Entry) AgedAverage(now int64) int64 {
	return (e.Avg + (now - e.Last)) / 2
}

// less orders entries ascending by Key, breaking ties by ObjectID so table
// order — and with it the whole simulation — is fully deterministic.
func less(a, b *Entry) bool {
	if a.Key() != b.Key() {
		return a.Key() < b.Key()
	}
	return a.Object < b.Object
}

// String implements fmt.Stringer in the paper's row layout.
func (e *Entry) String() string {
	return fmt.Sprintf("%-14s %-10s %6d %6d %6d",
		e.Object, e.Location, e.Last, e.Avg, e.Hits)
}

// Kind identifies which mapping table an entry lives in.
type Kind uint8

// Table kinds, ordered by lookup priority in Update_Entry (Fig. 8).
const (
	// KindNone means the object is in no table.
	KindNone Kind = iota
	// KindCaching is the caching table: entries whose objects are
	// actually stored in the local cache.
	KindCaching
	// KindMultiple is the multiple-table: objects seen at least twice.
	KindMultiple
	// KindSingle is the LRU single-table: first sightings.
	KindSingle
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindCaching:
		return "caching"
	case KindMultiple:
		return "multiple"
	case KindSingle:
		return "single"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}
