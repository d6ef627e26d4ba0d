package core

import (
	"fmt"
	"math/bits"

	"github.com/adc-sim/adc/internal/ids"
)

// directory is the unified object index of one Tables: a flat open-addressed
// hash table from object ID to entry, probed linearly. It is sized once, for
// the most entries the three bounded tables can ever hold, at a load factor
// of at most ½, and is never grown or rehashed; deletion shifts the rest of
// the probe run back over the hole, so there are no tombstones and a miss
// stops at the first empty cell for the whole life of the table.
//
// A cell is 16 bytes — which table holds the object is a field of the entry
// (Entry.kind), not of the cell — so four cells share a cache line and a
// promotion or demotion never touches the directory.
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
}

// dirCell is one directory cell; a nil entry marks it empty.
type dirCell struct {
	obj   ids.ObjectID
	entry *Entry
}

// newDirectory returns a directory that can hold up to maxEntries objects.
func newDirectory(maxEntries int, seed uint64) *directory {
	size := 1 << bits.Len(uint(2*maxEntries-1)) // smallest power of two ≥ 2·maxEntries
	return &directory{cells: make([]dirCell, size), mask: uint64(size - 1), seed: seed}
}

// home is the cell obj's probe run starts at: two multiply/xor-shift rounds
// over obj^seed, so every input bit reaches every bit of the index.
func (d *directory) home(obj ids.ObjectID) uint64 {
	h := uint64(obj) ^ d.seed
	h = (h ^ h>>32) * 0xd6e8feb86659fd93
	h = (h ^ h>>32) * 0xd6e8feb86659fd93
	return (h ^ h>>32) & d.mask
}

// get returns obj's entry, or nil.
func (d *directory) get(obj ids.ObjectID) *Entry {
	for i := d.home(obj); ; i = (i + 1) & d.mask {
		c := &d.cells[i]
		if c.entry == nil || c.obj == obj {
			return c.entry
		}
	}
}

// set maps obj to e, replacing any previous mapping. The caller keeps the
// population within the bound given to newDirectory.
func (d *directory) set(obj ids.ObjectID, e *Entry) {
	for i := d.home(obj); ; i = (i + 1) & d.mask {
		c := &d.cells[i]
		if c.entry == nil {
			d.n++
			*c = dirCell{obj: obj, entry: e}
			return
		}
		if c.obj == obj {
			c.entry = e
			return
		}
	}
}

// del forgets obj, if present, and closes the hole: each later cell of the
// probe run moves back into it unless that would put the cell before its own
// home, so every remaining object stays reachable from its home without
// crossing an empty cell.
func (d *directory) del(obj ids.ObjectID) {
	i := d.home(obj)
	for d.cells[i].entry == nil || d.cells[i].obj != obj {
		if d.cells[i].entry == nil {
			return
		}
		i = (i + 1) & d.mask
	}
	for j := (i + 1) & d.mask; d.cells[j].entry != nil; j = (j + 1) & d.mask {
		// Cyclic distances: the cell at j may fill the hole at i when
		// its home is at or before i, i.e. at least as far back as i.
		if (j-d.home(d.cells[j].obj))&d.mask >= (j-i)&d.mask {
			d.cells[i] = d.cells[j]
			i = j
		}
	}
	d.cells[i] = dirCell{}
	d.n--
}

// check verifies the directory's own structure: the population count, the
// load bound, and that every stored object is reachable from its home cell.
func (d *directory) check() error {
	n := 0
	for i := range d.cells {
		c := d.cells[i]
		if c.entry == nil {
			continue
		}
		n++
		if c.entry.Object != c.obj {
			return fmt.Errorf("directory cell %d: key %v holds the entry of %v", i, c.obj, c.entry.Object)
		}
		if got := d.get(c.obj); got != c.entry {
			return fmt.Errorf("directory cell %d: %v is not reachable from its home cell", i, c.obj)
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
