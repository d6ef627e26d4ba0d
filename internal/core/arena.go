package core

import "github.com/adc-sim/adc/internal/ids"

// entryArena slab-allocates mapping-table entries and recycles the ones the
// system forgets (Outcome.Dropped), mirroring internal/msg.Freelist: one
// arena per Tables, single-threaded like the proxy that owns it, so no
// locking. In steady state — full tables, every first sighting displacing a
// forgotten one — Update allocates nothing: the dropped entry's slot is
// reused for the next newcomer.
//
// Entries are handed out from contiguous slabs, so a proxy's live entries
// cluster in memory instead of being scattered one garbage-collected
// allocation at a time.
type entryArena struct {
	// slab is the tail of the current slab still to be handed out.
	slab []Entry
	// free holds recycled entries.
	free []*Entry
}

// arenaSlab is the slab size in entries. 1024 × 64 B = 64 KB per slab, small
// against the reference 50k-entry table budget but large enough to make slab
// allocation disappear from profiles. A slab that size is allocated whole
// pages at a time, so it starts page-aligned and each of its entries fills
// exactly one cache line.
const arenaSlab = 1024

// get returns a fresh first-sighting entry (paper Fig. 8 Part 4: AVG 0,
// HITS 1, LAST = now), recycling a dropped entry when one is available.
func (a *entryArena) get(obj ids.ObjectID, loc ids.NodeID, now int64) *Entry {
	if n := len(a.free); n > 0 {
		e := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		e.Object, e.Location, e.Last, e.Avg, e.Hits = obj, loc, now, 0, 1
		return e
	}
	if len(a.slab) == 0 {
		a.slab = make([]Entry, arenaSlab)
	}
	e := &a.slab[0]
	a.slab = a.slab[1:]
	e.Object, e.Location, e.Last, e.Avg, e.Hits = obj, loc, now, 0, 1
	return e
}

// put recycles e. The caller must not touch the entry afterwards; it is
// zeroed immediately so dangling reads fail loudly in tests.
func (a *entryArena) put(e *Entry) {
	*e = Entry{}
	a.free = append(a.free, e)
}
