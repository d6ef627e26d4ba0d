package ids

import (
	"math/bits"
	"unsafe"
)

// ReqTable holds per-request state keyed by RequestID: a flat open-addressed
// hash table, probed linearly, with a multiplicative hash. Deletion shifts
// the rest of the probe run back over the hole, so there are no tombstones
// and a miss stops at the first empty cell; the table at least doubles when
// an insert would take it above load ½.
//
// Key 0 marks an empty cell and is not a valid key. NewRequestID never mints
// it — every client counts its requests from 1 — and Upsert panics on it.
// The table is never iterated, so its layout reaches no result, only probe
// lengths.
//
// The zero value is an empty table that takes released cells or allocates
// on its first Upsert. A pointer returned by Find or Upsert stays valid
// until the next Upsert or Delete, either of which may move cells.
type ReqTable[V any] struct {
	cells []reqCell[V]
	mask  uint64
	shift uint
	n     int
}

// reqCell is one table cell; id 0 marks it empty.
type reqCell[V any] struct {
	id RequestID
	v  V
}

// reqTableMinCells is the size of a table's first cell array.
const reqTableMinCells = 16

// home is the cell id's probe run starts at: the top bits of id times
// 2⁶⁴/φ (Fibonacci hashing), which spreads both the client index in the
// high bits and consecutive counters in the low bits over the whole array.
func (t *ReqTable[V]) home(id RequestID) uint64 {
	return uint64(id) * 0x9e3779b97f4a7c15 >> t.shift
}

// Len returns the number of stored requests.
func (t *ReqTable[V]) Len() int { return t.n }

// Find returns id's value, or nil when id is absent.
func (t *ReqTable[V]) Find(id RequestID) *V {
	if t.n == 0 {
		return nil
	}
	for i := t.home(id); ; i = (i + 1) & t.mask {
		c := &t.cells[i]
		if c.id == 0 {
			return nil
		}
		if c.id == id {
			return &c.v
		}
	}
}

// Upsert returns id's value, inserting a zero value first when id is
// absent.
func (t *ReqTable[V]) Upsert(id RequestID) *V {
	if id == 0 {
		panic("ids: request ID 0 marks an empty ReqTable cell")
	}
	if t.cells != nil {
		for i := t.home(id); ; i = (i + 1) & t.mask {
			c := &t.cells[i]
			if c.id == id {
				return &c.v
			}
			if c.id == 0 {
				if 2*(t.n+1) > len(t.cells) {
					break
				}
				t.n++
				c.id = id
				return &c.v
			}
		}
	}
	t.grow()
	c := t.free(id)
	t.n++
	c.id = id
	return &c.v
}

// Delete forgets id, if present, and closes the hole: each later cell of
// the probe run moves back into it unless that would put the cell before its
// own home, so every remaining request stays reachable from its home without
// crossing an empty cell.
func (t *ReqTable[V]) Delete(id RequestID) {
	if t.n == 0 || id == 0 {
		return
	}
	i := t.home(id)
	for t.cells[i].id != id {
		if t.cells[i].id == 0 {
			return
		}
		i = (i + 1) & t.mask
	}
	for j := (i + 1) & t.mask; t.cells[j].id != 0; j = (j + 1) & t.mask {
		// Cyclic distances: the cell at j may fill the hole at i when its
		// home is at or before i, i.e. at least as far back as i.
		if (j-t.home(t.cells[j].id))&t.mask >= (j-i)&t.mask {
			t.cells[i] = t.cells[j]
			i = j
		}
	}
	t.cells[i] = reqCell[V]{}
	t.n--
}

// reqCells holds released cell arrays, each as a pointer to its first cell,
// under reqCellsKey. Neither converts to an interface with an allocation.
var reqCells Pool[any]

// reqCellsKey names released arrays of 2^log2 cells of type reqCell[V].
type reqCellsKey[V any] struct{ log2 int }

// takeCells returns the shortest released array of at least n cells of type
// reqCell[V], or a new one of n cells; n is a power of two. Its cells are
// empty.
func takeCells[V any](n int) []reqCell[V] {
	for log2 := bits.Len(uint(n)) - 1; log2 < bits.UintSize-1; log2++ {
		if first, ok := reqCells.Get(reqCellsKey[V]{log2}); ok {
			return unsafe.Slice(first.(*reqCell[V]), 1<<log2)
		}
	}
	return make([]reqCell[V], n)
}

// putCells empties cells and releases them to takeCells, on any goroutine.
func putCells[V any](cells []reqCell[V]) {
	clear(cells)
	reqCells.Put(reqCellsKey[V]{bits.Len(uint(len(cells))) - 1}, &cells[0])
}

// Release empties the table and hands its cells to a later table of its
// type.
func (t *ReqTable[V]) Release() {
	if t.cells != nil {
		putCells(t.cells)
	}
	*t = ReqTable[V]{}
}

// grow moves the stored requests to an array of at least twice the cells,
// or installs a first array when there is none, and releases the array it
// outgrew.
func (t *ReqTable[V]) grow() {
	old := t.cells
	t.cells = takeCells[V](max(2*len(old), reqTableMinCells))
	t.mask = uint64(len(t.cells) - 1)
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.cells))))
	for i := range old {
		if old[i].id != 0 {
			*t.free(old[i].id) = old[i]
		}
	}
	if old != nil {
		putCells(old)
	}
}

// free returns the first empty cell of id's probe run; id must be absent.
func (t *ReqTable[V]) free(id RequestID) *reqCell[V] {
	i := t.home(id)
	for t.cells[i].id != 0 {
		i = (i + 1) & t.mask
	}
	return &t.cells[i]
}
