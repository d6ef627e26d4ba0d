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
// allocation at a time. An entry is named by its entryRef, its position
// across the slabs, which is what the directory stores instead of a
// pointer.
type entryArena struct {
	// slabs hold every entry handed out so far: entry i is
	// slabs[i/arenaSlab][i%arenaSlab].
	slabs []*[arenaSlab]Entry
	// slab is the tail of the last slab still to be handed out.
	slab []Entry
	// free holds recycled entries.
	free []entryRef
}

// entryRef names an arena entry: its index plus one, so the zero value
// names none.
type entryRef uint32

// arenaSlab is the slab size in entries. 1024 × 64 B = 64 KB per slab, small
// against the reference 50k-entry table budget but large enough to make slab
// allocation disappear from profiles. A slab that size is allocated whole
// pages at a time, so it starts page-aligned and each of its entries fills
// exactly one cache line.
const arenaSlab = 1024

// slabPool holds the zeroed slabs of released arenas for the next Tables.
var slabPool ids.Pool[*[arenaSlab]Entry]

// take returns a fresh first-sighting entry (paper Fig. 8 Part 4: AVG 0,
// HITS 1, LAST = now) and its ref, recycling a dropped entry when one is
// available.
func (a *entryArena) take(obj ids.ObjectID, loc ids.NodeID, now int64) (entryRef, *Entry) {
	var r entryRef
	if n := len(a.free); n > 0 {
		r = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		if len(a.slab) == 0 {
			s, ok := slabPool.Get(nil)
			if !ok {
				s = new([arenaSlab]Entry)
			}
			a.slabs = append(a.slabs, s)
			a.slab = s[:]
		}
		r = entryRef(len(a.slabs)*arenaSlab - len(a.slab) + 1)
		a.slab = a.slab[1:]
	}
	e := a.at(r)
	e.Object, e.Location, e.Last, e.Avg, e.Hits = obj, loc, now, 0, 1
	return r, e
}

// at returns the entry r names; r must not be zero.
func (a *entryArena) at(r entryRef) *Entry {
	i := r - 1
	return &a.slabs[i/arenaSlab][i%arenaSlab]
}

// put recycles the entry r names; put(0) does nothing. The caller must not
// touch the entry afterwards; it is zeroed immediately so dangling reads
// fail loudly in tests.
func (a *entryArena) put(r entryRef) {
	if r == 0 {
		return
	}
	*a.at(r) = Entry{}
	a.free = append(a.free, r)
}

// release zeroes every slab and hands it to slabPool; the arena must not be
// used afterwards.
func (a *entryArena) release() {
	for _, s := range a.slabs {
		clear(s[:])
		slabPool.Put(nil, s)
	}
	*a = entryArena{}
}
