package core

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
)

// btreeTable is the default ordered-table backend: a bounded two-level
// B-tree over (Key, Object) — a slice of small sorted blocks. Finding a
// block is a binary search over the block maxima, finding the position
// inside a block a second binary search; inserts and deletes memmove at
// most one block (≤ btreeMaxBlock cells) instead of the whole table, so
// the reference 20k-entry tables (§V.2) never pay a flat sorted array's
// O(n) shifting cost. This is the "more adapted data structure [that] should
// provide speed-ups" the paper calls for in §V.3.3.
//
// The sort key is stored inline: a block is an array of (key, object,
// entry) cells, so both searches, WorstKey and the by-object walks compare
// contiguous memory and never dereference an entry. Insert captures
// (e.Key(), e.Object) into the cell; RemoveEntry recomputes them from the
// entry and must find that same cell, which is why an entry's key may not
// change while it is stored (Tables removes before CalcAverage, always).
//
// A block that falls below a quarter full merges into a neighbour when the
// two fit in one block, so removals that drain the middle of the order —
// in-place updates re-insert near the front, demotions take from the back —
// cannot leave the table spread over mostly empty blocks.
//
// The structure is purely comparison-based over the same total order as
// the list backend, so promotion and demotion decisions — and with them
// all experiment outputs — are identical to the paper's linked list
// (asserted by the cross-backend equivalence tests and the cluster
// determinism test).
type btreeTable struct {
	capacity int
	// blocks hold the cells: each block is sorted ascending by
	// (key, obj), non-empty, every cell of block i orders before every
	// cell of block i+1, and no block below btreeMinBlock cells sits
	// beside one it fits into.
	blocks [][]btreeCell
	size   int
	// freeBlocks recycles split/merged block arrays so steady-state
	// churn allocates nothing.
	freeBlocks [][]btreeCell
}

// btreeCell is one stored entry with its sort position inline: key and obj
// are e.Key() and e.Object as of Insert. 24 bytes.
type btreeCell struct {
	key int64
	obj ids.ObjectID
	e   *Entry
}

// before reports whether c orders before (key, obj) — less, on inline keys.
func (c *btreeCell) before(key int64, obj ids.ObjectID) bool {
	return c.key < key || (c.key == key && c.obj < obj)
}

// btreeMaxBlock caps a block's length; blocks split in half when they
// exceed it. 128 cells = 3 KB, two cache-friendly memmove targets after a
// split. A block below btreeMinBlock cells merges into a neighbour when
// the two fit in one block.
const (
	btreeMaxBlock = 128
	btreeMinBlock = btreeMaxBlock / 4
)

// blockPool holds the zeroed blocks of released tables for the next table.
var blockPool ids.Pool[*[btreeMaxBlock + 1]btreeCell]

var _ Ordered = (*btreeTable)(nil)

func newBTreeTable(capacity int) *btreeTable {
	return &btreeTable{capacity: capacity}
}

func (t *btreeTable) Len() int { return t.size }
func (t *btreeTable) Cap() int { return t.capacity }

// findBlock returns the index of the only block that can contain a cell
// ordering as (key, obj): the first block whose last cell is not before it.
// Returns len(blocks) when (key, obj) orders after everything stored.
func (t *btreeTable) findBlock(key int64, obj ids.ObjectID) int {
	lo, hi := 0, len(t.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if blk := t.blocks[mid]; blk[len(blk)-1].before(key, obj) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findCell returns the index of the first cell of blk not before (key, obj).
func findCell(blk []btreeCell, key int64, obj ids.ObjectID) int {
	lo, hi := 0, len(blk)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if blk[mid].before(key, obj) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (t *btreeTable) Contains(obj ids.ObjectID) bool { return t.Get(obj) != nil }

// Get searches by object. The key is unknown, so this is a linear walk —
// legacy/test path only; the hot path resolves membership through the
// Tables directory.
func (t *btreeTable) Get(obj ids.ObjectID) *Entry {
	for _, blk := range t.blocks {
		for i := range blk {
			if blk[i].obj == obj {
				return blk[i].e
			}
		}
	}
	return nil
}

func (t *btreeTable) RemoveEntry(e *Entry) {
	key := e.Key()
	bi := t.findBlock(key, e.Object)
	// e is present, so bi is in range and its block contains e's cell.
	i := findCell(t.blocks[bi], key, e.Object)
	if t.blocks[bi][i].e != e {
		panic("core: entry's key changed while it was stored in an ordered table")
	}
	t.removeAt(bi, i)
}

// removeAt deletes cell i of block bi, dropping the block when it empties
// and merging it into a neighbour when it falls below btreeMinBlock.
func (t *btreeTable) removeAt(bi, i int) {
	blk := t.blocks[bi]
	copy(blk[i:], blk[i+1:])
	blk[len(blk)-1] = btreeCell{}
	t.blocks[bi] = blk[:len(blk)-1]
	t.size--
	if len(blk) == 1 {
		t.dropBlock(bi)
		t.mergeAt(bi - 1)
		return
	}
	t.mergeAround(bi)
}

// dropBlock frees the now empty block bi.
func (t *btreeTable) dropBlock(bi int) {
	t.freeBlocks = append(t.freeBlocks, t.blocks[bi])
	copy(t.blocks[bi:], t.blocks[bi+1:])
	t.blocks[len(t.blocks)-1] = nil
	t.blocks = t.blocks[:len(t.blocks)-1]
}

// mergeAround restores the merge rule after block bi changed length: first
// with its left neighbour, then with its right.
func (t *btreeTable) mergeAround(bi int) {
	if t.mergeAt(bi - 1) {
		bi--
	}
	t.mergeAt(bi)
}

// mergeable reports whether blocks bi and bi+1 break the merge rule: one of
// them is below btreeMinBlock and both fit in one block.
func (t *btreeTable) mergeable(bi int) bool {
	if bi < 0 || bi+1 >= len(t.blocks) {
		return false
	}
	l, r := len(t.blocks[bi]), len(t.blocks[bi+1])
	return min(l, r) < btreeMinBlock && l+r <= btreeMaxBlock
}

// mergeAt appends block bi+1 to block bi when the pair is mergeable and
// reports whether it did. The cells keep their order.
func (t *btreeTable) mergeAt(bi int) bool {
	if !t.mergeable(bi) {
		return false
	}
	right := t.blocks[bi+1]
	t.blocks[bi] = append(t.blocks[bi], right...)
	clear(right)
	t.blocks[bi+1] = right[:0]
	t.dropBlock(bi + 1)
	return true
}

// newBlock returns an empty block with btreeMaxBlock+1 capacity (one slot
// of slack so a block can overflow momentarily before splitting).
func (t *btreeTable) newBlock() []btreeCell {
	if n := len(t.freeBlocks); n > 0 {
		blk := t.freeBlocks[n-1]
		t.freeBlocks[n-1] = nil
		t.freeBlocks = t.freeBlocks[:n-1]
		return blk
	}
	if b, ok := blockPool.Get(nil); ok {
		return b[:0]
	}
	return make([]btreeCell, 0, btreeMaxBlock+1)
}

// release zeroes every block and hands it to blockPool; the table must not
// be used afterwards.
func (t *btreeTable) release() {
	for _, blk := range append(t.blocks, t.freeBlocks...) {
		clear(blk)
		blockPool.Put(nil, (*[btreeMaxBlock + 1]btreeCell)(blk[:btreeMaxBlock+1]))
	}
	*t = btreeTable{}
}

func (t *btreeTable) Insert(e *Entry) *Entry {
	if t.capacity == 0 {
		return e
	}
	c := btreeCell{key: e.Key(), obj: e.Object, e: e}
	if len(t.blocks) == 0 {
		blk := append(t.newBlock(), c)
		t.blocks = append(t.blocks, blk)
		t.size++
		return t.evictOverflow()
	}
	bi := t.findBlock(c.key, c.obj)
	if bi == len(t.blocks) {
		bi-- // orders after everything: append to the last block
	}
	blk := t.blocks[bi]
	i := findCell(blk, c.key, c.obj)
	blk = append(blk, btreeCell{})
	copy(blk[i+1:], blk[i:])
	blk[i] = c
	t.blocks[bi] = blk
	t.size++
	if len(blk) > btreeMaxBlock {
		t.splitBlock(bi)
	}
	return t.evictOverflow()
}

// splitBlock halves block bi into two blocks. Each half is below the
// full block its neighbour did not fit beside, so a small neighbour may now
// merge into it.
func (t *btreeTable) splitBlock(bi int) {
	blk := t.blocks[bi]
	mid := len(blk) / 2
	right := append(t.newBlock(), blk[mid:]...)
	clear(blk[mid:])
	t.blocks[bi] = blk[:mid]
	t.blocks = append(t.blocks, nil)
	copy(t.blocks[bi+2:], t.blocks[bi+1:])
	t.blocks[bi+1] = right
	t.mergeAt(bi + 1)
	t.mergeAt(bi - 1)
}

// evictOverflow enforces the capacity bound after an insert.
func (t *btreeTable) evictOverflow() *Entry {
	if t.size > t.capacity {
		return t.removeWorst()
	}
	return nil
}

// removeWorst evicts and returns the entry with the largest key (the
// paper's RemoveLastEntry), or nil when empty.
func (t *btreeTable) removeWorst() *Entry {
	if t.size == 0 {
		return nil
	}
	bi := len(t.blocks) - 1
	blk := t.blocks[bi]
	e := blk[len(blk)-1].e
	t.removeAt(bi, len(blk)-1)
	return e
}

func (t *btreeTable) WorstKey() (int64, bool) {
	if t.size == 0 {
		return 0, false
	}
	blk := t.blocks[len(t.blocks)-1]
	return blk[len(blk)-1].key, true
}

func (t *btreeTable) Each(fn func(*Entry) bool) {
	for _, blk := range t.blocks {
		for i := range blk {
			if !fn(blk[i].e) {
				return
			}
		}
	}
}

func (t *btreeTable) Entries() []*Entry {
	out := make([]*Entry, 0, t.size)
	t.Each(func(e *Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// check verifies the block structure — lengths, the merge rule — and that
// every cell's inline key and object still equal its entry's: a stored key
// that drifted from its entry is the one failure inline keys make possible
// (Entry.Avg and Entry.Last are exported), and it would make RemoveEntry
// miss.
func (t *btreeTable) check() error {
	n := 0
	var prev *btreeCell
	for bi, blk := range t.blocks {
		if len(blk) == 0 || len(blk) > btreeMaxBlock {
			return fmt.Errorf("btree block %d holds %d cells, want 1..%d", bi, len(blk), btreeMaxBlock)
		}
		if t.mergeable(bi) {
			return fmt.Errorf("btree blocks %d and %d hold %d and %d cells: below %d beside a block it fits into",
				bi, bi+1, len(blk), len(t.blocks[bi+1]), btreeMinBlock)
		}
		for i := range blk {
			c := &blk[i]
			if c.key != c.e.Key() || c.obj != c.e.Object {
				return fmt.Errorf("btree cell (%d, %v) holds entry (%d, %v): key changed while stored",
					c.key, c.obj, c.e.Key(), c.e.Object)
			}
			if prev != nil && !prev.before(c.key, c.obj) {
				return fmt.Errorf("btree cells out of order: (%d, %v) before (%d, %v)",
					prev.key, prev.obj, c.key, c.obj)
			}
			prev = c
			n++
		}
	}
	if n != t.size {
		return fmt.Errorf("btree counts %d entries, blocks hold %d", t.size, n)
	}
	return nil
}
