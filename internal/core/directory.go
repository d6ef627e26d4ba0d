package core

import (
	"fmt"
	"math/bits"
	"unsafe"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/prefetch"
)

// directory is the unified object index of one Tables: a flat open-addressed
// hash table from object ID to arena entry, probed linearly. It is sized
// once, for the most entries the three bounded tables can ever hold, at a
// load factor of at most ½, and is never grown or rehashed; deletion shifts
// the rest of the probe run back over the hole, so there are no tombstones
// and a miss stops at the first empty cell for the whole life of the table.
//
// A cell is 8 bytes and holds no pointer: a 32-bit tag, the low half of the
// object's seeded hash, and the entry's arena ref. The home cell is the
// tag's low bits, so deletion's backward shift reads only cells; a tag
// match is confirmed by the entry's Object, the line IsCached reads
// anyway. Which table holds the object is a field of the entry
// (Entry.kind), not of the cell, so eight cells share a cache line and a
// promotion or demotion never touches the directory. Being pointer-free,
// the cells are invisible to the garbage collector's marking.
type directory struct {
	cells []dirCell
	mask  uint64
	// seed perturbs the hash. Farm object IDs are chosen by clients (the
	// URL path), and with a fixed hash one client could aim every request
	// at one probe run and turn each lookup under the proxy lock into an
	// O(n) walk. The directory is never iterated, so the seed reaches no
	// result — only probe lengths.
	seed uint64
	n    int
	// arena resolves the refs the cells hold.
	arena *entryArena
}

// dirCell is one directory cell; a zero ref marks it empty.
type dirCell struct {
	tag uint32
	ref entryRef
}

// dirPool holds released cell arrays keyed by their length (a power of
// two), so a Tables only ever takes cells of its own size.
var dirPool ids.Pool[[]dirCell]

// newDirectory returns a directory that can hold up to maxEntries objects
// of arena a.
func newDirectory(maxEntries int, seed uint64, a *entryArena) *directory {
	size := 1 << bits.Len(uint(2*maxEntries-1)) // smallest power of two ≥ 2·maxEntries
	d := &directory{mask: uint64(size - 1), seed: seed, arena: a}
	if c, ok := dirPool.Get(size); ok {
		d.cells = c
	} else {
		d.cells = make([]dirCell, size)
	}
	return d
}

// release zeroes the cells and hands them to their pool; the directory must
// not be used afterwards.
func (d *directory) release() {
	clear(d.cells)
	dirPool.Put(len(d.cells), d.cells)
	d.cells = nil
}

// tag is obj's seeded hash: two multiply/xor-shift rounds over obj^seed, so
// every input bit reaches every bit of the tag.
func (d *directory) tag(obj ids.ObjectID) uint32 {
	h := uint64(obj) ^ d.seed
	h = (h ^ h>>32) * hashMul
	h = (h ^ h>>32) * hashMul
	return uint32(h ^ h>>32)
}

// hashMul is the odd multiplier of tag's mixing rounds.
const hashMul = 0xd6e8feb86659fd93

// home is the cell obj's probe run starts at.
func (d *directory) home(obj ids.ObjectID) uint64 { return uint64(d.tag(obj)) & d.mask }

// prefetch starts loading obj's home cell (see internal/prefetch).
func (d *directory) prefetch(obj ids.ObjectID) {
	prefetch.Line(unsafe.Pointer(&d.cells[d.home(obj)]))
}

// find returns the cell holding obj and its entry, or the empty cell that
// ends obj's probe run and nil.
func (d *directory) find(obj ids.ObjectID, tag uint32) (uint64, *Entry) {
	for i := uint64(tag) & d.mask; ; i = (i + 1) & d.mask {
		c := d.cells[i]
		if c.ref == 0 {
			return i, nil
		}
		if c.tag == tag {
			if e := d.arena.at(c.ref); e.Object == obj {
				return i, e
			}
		}
	}
}

// get returns obj's entry, or nil.
func (d *directory) get(obj ids.ObjectID) *Entry {
	_, e := d.find(obj, d.tag(obj))
	return e
}

// set maps obj to the arena entry r, whose Object must be obj, replacing
// any previous mapping. The caller keeps the population within the bound
// given to newDirectory.
func (d *directory) set(obj ids.ObjectID, r entryRef) {
	tag := d.tag(obj)
	i, e := d.find(obj, tag)
	if e == nil {
		d.n++
	}
	d.cells[i] = dirCell{tag: tag, ref: r}
}

// del forgets obj, if present, returning the ref it mapped to (0 if none),
// and closes the hole: each later cell of the probe run moves back into it
// unless that would put the cell before its own home, so every remaining
// object stays reachable from its home without crossing an empty cell.
func (d *directory) del(obj ids.ObjectID) entryRef {
	i, e := d.find(obj, d.tag(obj))
	if e == nil {
		return 0
	}
	r := d.cells[i].ref
	for j := (i + 1) & d.mask; d.cells[j].ref != 0; j = (j + 1) & d.mask {
		// Cyclic distances: the cell at j may fill the hole at i when
		// its home is at or before i, i.e. at least as far back as i.
		if (j-uint64(d.cells[j].tag))&d.mask >= (j-i)&d.mask {
			d.cells[i] = d.cells[j]
			i = j
		}
	}
	d.cells[i] = dirCell{}
	d.n--
	return r
}

// check verifies the directory's own structure: the population count, the
// load bound, every tag the hash of its entry's object, and every stored
// object reachable from its home cell.
func (d *directory) check() error {
	n := 0
	handedOut := entryRef(len(d.arena.slabs)*arenaSlab - len(d.arena.slab))
	for i, c := range d.cells {
		if c.ref == 0 {
			continue
		}
		n++
		if c.ref > handedOut {
			return fmt.Errorf("directory cell %d: ref %d beyond the %d entries the arena handed out", i, c.ref, handedOut)
		}
		e := d.arena.at(c.ref)
		if c.tag != d.tag(e.Object) {
			return fmt.Errorf("directory cell %d: tag %#x is not the hash of its entry's object %v", i, c.tag, e.Object)
		}
		if got := d.get(e.Object); got != e {
			return fmt.Errorf("directory cell %d: %v is not reachable from its home cell", i, e.Object)
		}
	}
	if n != d.n {
		return fmt.Errorf("directory counts %d objects, %d cells are occupied", d.n, n)
	}
	if 2*n > len(d.cells) {
		return fmt.Errorf("directory holds %d objects in %d cells, above load ½", n, len(d.cells))
	}
	return nil
}
