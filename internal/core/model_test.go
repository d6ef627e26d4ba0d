package core

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

// refTables is a deliberately naive executable model of the paper's
// Update_Entry (Fig. 8): plain slices, re-sorted from scratch after every
// operation. The real Tables must agree with it on every observable after
// every step — a model-based test that pins the promotion semantics
// independently of the optimised data structures.
type refTables struct {
	singleCap, multipleCap, cachingCap int
	single                             []*refEntry // index 0 = top (most recent)
	multiple                           []*refEntry // ascending (key, object)
	caching                            []*refEntry // ascending (key, object)
}

type refEntry struct {
	obj  ids.ObjectID
	loc  ids.NodeID
	last int64
	avg  int64
	hits int64
}

func (e *refEntry) key() int64 { return e.avg - e.last }

func (e *refEntry) calcAverage(now int64) {
	gap := now - e.last
	if e.hits <= 1 {
		e.avg = gap
	} else {
		e.avg = (e.avg + gap) / 2
	}
	e.hits++
	e.last = now
}

func refLess(a, b *refEntry) bool {
	if a.key() != b.key() {
		return a.key() < b.key()
	}
	return a.obj < b.obj
}

func (r *refTables) sortOrdered() {
	sort.SliceStable(r.multiple, func(i, j int) bool { return refLess(r.multiple[i], r.multiple[j]) })
	sort.SliceStable(r.caching, func(i, j int) bool { return refLess(r.caching[i], r.caching[j]) })
}

func removeFrom(list []*refEntry, obj ids.ObjectID) ([]*refEntry, *refEntry) {
	for i, e := range list {
		if e.obj == obj {
			return append(list[:i], list[i+1:]...), e
		}
	}
	return list, nil
}

func (r *refTables) admits(list []*refEntry, capacity int, e *refEntry) bool {
	if capacity == 0 {
		return false
	}
	if len(list) < capacity {
		return true
	}
	worst := list[len(list)-1]
	return e.key() < worst.key()
}

// pushSingleTop inserts on top of the LRU single-table, dropping the
// bottom entry when full.
func (r *refTables) pushSingleTop(e *refEntry) {
	if len(r.single) >= r.singleCap {
		r.single = r.single[:len(r.single)-1]
	}
	r.single = append([]*refEntry{e}, r.single...)
}

// update mirrors Fig. 8 exactly.
func (r *refTables) update(obj ids.ObjectID, loc ids.NodeID, now int64) {
	defer r.sortOrdered()

	// Part 1: caching table.
	if list, e := removeFrom(r.caching, obj); e != nil {
		r.caching = list
		e.calcAverage(now)
		e.loc = loc
		r.caching = append(r.caching, e)
		return
	}

	// Part 2: multiple-table.
	if list, e := removeFrom(r.multiple, obj); e != nil {
		r.multiple = list
		e.calcAverage(now)
		e.loc = loc
		r.sortOrdered() // keep worst-identification exact
		if r.admits(r.caching, r.cachingCap, e) {
			if len(r.caching) >= r.cachingCap {
				worst := r.caching[len(r.caching)-1]
				r.caching = r.caching[:len(r.caching)-1]
				r.multiple = append(r.multiple, worst)
			}
			r.caching = append(r.caching, e)
		} else {
			r.multiple = append(r.multiple, e)
		}
		return
	}

	// Part 3: single-table.
	if list, e := removeFrom(r.single, obj); e != nil {
		r.single = list
		e.calcAverage(now)
		e.loc = loc
		if r.admits(r.multiple, r.multipleCap, e) {
			if len(r.multiple) >= r.multipleCap {
				worst := r.multiple[len(r.multiple)-1]
				r.multiple = r.multiple[:len(r.multiple)-1]
				r.pushSingleTop(worst)
			}
			r.multiple = append(r.multiple, e)
		} else {
			r.pushSingleTop(e)
		}
		return
	}

	// Part 4: new entry.
	r.pushSingleTop(&refEntry{obj: obj, loc: loc, last: now, avg: 0, hits: 1})
}

func compareState(t *testing.T, step int, tbl *Tables, ref *refTables) {
	t.Helper()
	checkList := func(name string, got []*Entry, want []*refEntry) {
		if len(got) != len(want) {
			t.Fatalf("step %d: %s length %d, model %d", step, name, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Object != w.obj || g.Location != w.loc || g.Last != w.last ||
				g.Avg != w.avg || g.Hits != w.hits {
				t.Fatalf("step %d: %s[%d] = {%v %v %d %d %d}, model {%v %v %d %d %d}",
					step, name, i,
					g.Object, g.Location, g.Last, g.Avg, g.Hits,
					w.obj, w.loc, w.last, w.avg, w.hits)
			}
		}
	}
	checkList("caching", tbl.Caching().Entries(), ref.caching)
	checkList("multiple", tbl.Multiple().Entries(), ref.multiple)
	checkList("single", tbl.Single().Entries(), ref.single)
}

// TestTablesMatchExecutableModel runs long random request streams through
// the real Tables and the naive model and demands identical state after
// every update — across all three ordered-table backends and several
// capacity shapes.
func TestTablesMatchExecutableModel(t *testing.T) {
	shapes := []struct{ s, m, c int }{
		{4, 3, 2},
		{8, 4, 4},
		{2, 1, 1},
		{16, 8, 2},
	}
	for _, backend := range []Backend{BackendBTree, BackendSlice, BackendList} {
		for _, shape := range shapes {
			tbl, err := NewTables(Config{
				SingleSize: shape.s, MultipleSize: shape.m, CachingSize: shape.c,
				Backend: backend,
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := &refTables{singleCap: shape.s, multipleCap: shape.m, cachingCap: shape.c}
			rng := rand.New(rand.NewSource(int64(shape.s*100 + shape.m)))
			now := int64(0)
			for step := 0; step < 4000; step++ {
				now += int64(rng.Intn(3)) // repeated timestamps allowed
				obj := ids.ObjectID(rng.Intn(24))
				loc := ids.NodeID(rng.Intn(4))
				tbl.Update(obj, loc, now)
				ref.update(obj, loc, now)
				compareState(t, step, tbl, ref)
				if step%64 == 0 {
					if err := tbl.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
		}
	}
}
