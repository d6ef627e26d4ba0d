package ids

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"testing"
)

// reqModel pairs a ReqTable with the builtin map it must behave like.
type reqModel struct {
	t     ReqTable[int]
	model map[RequestID]int
}

func newReqModel() *reqModel { return &reqModel{model: make(map[RequestID]int)} }

// upsert stores v under id in both, first checking that Upsert hands back
// the stored value (zero for an absent id).
func (m *reqModel) upsert(id RequestID, v int) error {
	p := m.t.Upsert(id)
	if *p != m.model[id] {
		return fmt.Errorf("Upsert(%v) returned %d, model holds %d", id, *p, m.model[id])
	}
	*p = v
	m.model[id] = v
	return nil
}

func (m *reqModel) del(id RequestID) {
	m.t.Delete(id)
	delete(m.model, id)
}

// find compares Find(id) with the model.
func (m *reqModel) find(id RequestID) error {
	p := m.t.Find(id)
	want, ok := m.model[id]
	switch {
	case p == nil && ok:
		return fmt.Errorf("Find(%v) = nil, model holds %d", id, want)
	case p != nil && !ok:
		return fmt.Errorf("Find(%v) = %d, model holds nothing", id, *p)
	case p != nil && *p != want:
		return fmt.Errorf("Find(%v) = %d, model holds %d", id, *p, want)
	}
	return nil
}

// agree compares Len, the table's own structure and Find of every key in
// keys with the model.
func (m *reqModel) agree(keys []RequestID) error {
	if m.t.Len() != len(m.model) {
		return fmt.Errorf("Len = %d, model holds %d", m.t.Len(), len(m.model))
	}
	if err := m.t.check(); err != nil {
		return err
	}
	for _, id := range keys {
		if err := m.find(id); err != nil {
			return err
		}
	}
	return nil
}

// check verifies the table's structure: the population count, the load
// bound, and that every stored request is reachable from its home cell.
func (t *ReqTable[V]) check() error {
	n := 0
	for i, c := range t.cells {
		if c.id == 0 {
			continue
		}
		n++
		if t.Find(c.id) != &t.cells[i].v {
			return fmt.Errorf("cell %d: %v is not reachable from its home cell", i, c.id)
		}
	}
	if n != t.n {
		return fmt.Errorf("table counts %d requests, %d cells are occupied", t.n, n)
	}
	if 2*n > len(t.cells) {
		return fmt.Errorf("%d requests in %d cells, above load ½", n, len(t.cells))
	}
	return nil
}

// aimedKeys returns the first n request IDs whose home is the last cell of
// a table's first cell array. Doubling maps that cell to the last two, then
// the last four, so the keys keep crowding the array end as the table grows
// and their probe runs wrap to cell 0.
func aimedKeys(n int) []RequestID {
	probe := ReqTable[int]{mask: reqTableMinCells - 1, shift: 60}
	var keys []RequestID
	for id := RequestID(1); len(keys) < n; id++ {
		if probe.home(id) == reqTableMinCells-1 {
			keys = append(keys, id)
		}
	}
	return keys
}

// TestFuzzReqCorpusShapes pins what the committed FuzzReqTable corpus
// entries are named for: the aimed keys share the last home cell of the
// first array, and key 5 (index 4) sits at home in cell 1, inside the run
// they wrap into. If the hash changes, this fails first.
func TestFuzzReqCorpusShapes(t *testing.T) {
	drainReleasedCells()
	var tb ReqTable[int]
	tb.Upsert(1) // allocates the first cell array
	if len(tb.cells) != reqTableMinCells || tb.shift != 60 {
		t.Fatalf("first cell array: %d cells, shift %d; aimedKeys assumes %d and 60", len(tb.cells), tb.shift, reqTableMinCells)
	}
	for _, id := range fuzzReqKeys[7:] {
		if h := tb.home(id); h != reqTableMinCells-1 {
			t.Errorf("home(%v) = %d, want %d", id, h, reqTableMinCells-1)
		}
	}
	if fuzzReqKeys[4] != 5 || tb.home(5) != 1 {
		t.Errorf("key index 4 is %v with home %d, the corpus assumes 5 and 1", fuzzReqKeys[4], tb.home(5))
	}
}

// TestReqTableModel drives random upsert/find/delete against a builtin map:
// client-shaped IDs (consecutive counters under several client indices) and
// keys aimed at one home cell, pushed through growth, churned and drained.
func TestReqTableModel(t *testing.T) {
	var keys []RequestID
	for c := 0; c < 8; c++ {
		for k := uint64(1); k <= 400; k++ {
			keys = append(keys, NewRequestID(c, k))
		}
	}
	keys = append(keys, aimedKeys(64)...)
	m := newReqModel()
	rng := rand.New(rand.NewSource(29))
	phases := []struct {
		name  string
		steps int
		del   float64 // chance an op on a present key deletes it
		drain bool
	}{{"fill", 4000, 0, false}, {"churn", 20000, 0.5, false}, {"drain", 40000, 1, true}}
	for _, ph := range phases {
		for step := 0; step < ph.steps; step++ {
			id := keys[rng.Intn(len(keys))]
			_, present := m.model[id]
			switch {
			case rng.Intn(4) == 0:
			case present && rng.Float64() >= ph.del, !present && !ph.drain:
				if err := m.upsert(id, step); err != nil {
					t.Fatalf("%s step %d: %v", ph.name, step, err)
				}
			default:
				m.del(id)
			}
			if err := m.find(id); err != nil || m.t.Len() != len(m.model) {
				t.Fatalf("%s step %d: %v (Len %d, model %d)", ph.name, step, err, m.t.Len(), len(m.model))
			}
			if step%1000 == 0 {
				if err := m.agree(keys); err != nil {
					t.Fatalf("%s step %d: %v", ph.name, step, err)
				}
			}
		}
		if err := m.agree(keys); err != nil {
			t.Fatalf("after %s: %v", ph.name, err)
		}
		if ph.drain && len(m.model) != 0 {
			t.Fatalf("drain left %d requests", len(m.model))
		}
	}
}

func TestReqTableZeroKey(t *testing.T) {
	var tb ReqTable[int]
	*tb.Upsert(5) = 1
	if tb.Find(0) != nil {
		t.Error("Find(0) found a value")
	}
	tb.Delete(0)
	if tb.Len() != 1 || tb.Find(5) == nil {
		t.Error("Delete(0) changed the table")
	}
	defer func() {
		if recover() == nil {
			t.Error("Upsert(0) did not panic")
		}
	}()
	tb.Upsert(0)
}

// fuzzReqKeys is FuzzReqTable's key alphabet: seven small IDs, then (from
// index 7) keys aimed at the last cell of the first array — more than it
// holds, so runs wrap the array end, deletes shift across the wrap and the
// table grows in the middle of a run.
var fuzzReqKeys = append([]RequestID{1, 2, 3, 4, 5, 6, 7}, aimedKeys(25)...)

// fuzzReqWideKeys is the alphabet of FuzzReqTable's second pass: the first
// one and 96 client-shaped IDs, four times as many keys, so the table can
// outgrow the cells it took back.
var fuzzReqWideKeys = func() []RequestID {
	keys := append([]RequestID(nil), fuzzReqKeys...)
	for c := 0; c < 3; c++ {
		for k := uint64(1); k <= 32; k++ {
			keys = append(keys, NewRequestID(c, k))
		}
	}
	return keys
}()

// drainReleasedCells empties the pool of released ReqTable[int] cells, so
// the next table's first Upsert allocates its first array.
func drainReleasedCells() {
	for log2 := range bits.UintSize {
		for {
			if _, ok := reqCells.Get(reqCellsKey[int]{log2}); !ok {
				break
			}
		}
	}
}

// settleReleasedCells empties the pool of released cells and returns once
// none of its aging finalizers is armed or queued, so none runs inside a
// measured region: one that runs re-arms itself and makes the next Put
// build a new map, and Mallocs counts both. Turning the collector off is
// not enough, since a collection that ended before may still have one
// queued; an emptied pool's finalizer does not re-arm. Finalizers run on
// one goroutine a batch at a time, in any order within a batch, and a
// batch is whatever was queued since the last one was taken. So one queued
// before a collection returns runs no later than the batch of the next
// collection's sentinel, and has run once the sentinel after that has.
// Call it with the collector off.
func settleReleasedCells() {
	reqCells.mu.Lock()
	reqCells.fresh, reqCells.old = nil, nil
	reqCells.mu.Unlock()
	for range 3 {
		done := make(chan struct{})
		runtime.SetFinalizer(new(*byte), func(**byte) { close(done) })
		runtime.GC()
		<-done
	}
}

// bySizeDelta names the size classes whose malloc count moved between two
// MemStats readings, so a stray allocation says how large it was.
func bySizeDelta(before, after *runtime.MemStats) string {
	var b strings.Builder
	for i := range after.BySize {
		if d := after.BySize[i].Mallocs - before.BySize[i].Mallocs; d != 0 {
			fmt.Fprintf(&b, " %d B ×%d", after.BySize[i].Size, d)
		}
	}
	if b.Len() == 0 {
		return " none (larger than the largest size class)"
	}
	return b.String()
}

// TestReqTableTakesReleasedCellsOfItsSize: a growing table draws the
// shortest released array that holds what it needs and releases the one it
// outgrew. With one 4096-cell array released and then eight of 16 cells, a
// table filled to 2000 requests starts on a 16-cell array, moves to the
// 4096-cell one and allocates nothing. The collector stays off meanwhile,
// with no aging finalizer of the pool left to run (settleReleasedCells): a
// collection ages the pool and its next Put allocates.
func TestReqTableTakesReleasedCellsOfItsSize(t *testing.T) {
	gcPercent := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gcPercent) })
	fill := func(tbl *ReqTable[int], n int) {
		for k := 1; k <= n; k++ {
			*tbl.Upsert(NewRequestID(0, uint64(k))) = k
		}
	}
	threads := pprof.Lookup("threadcreate")
	for attempt := 1; ; attempt++ {
		settleReleasedCells()
		var large ReqTable[int]
		small := make([]ReqTable[int], 8)
		fill(&large, 2000)
		for i := range small {
			fill(&small[i], 4)
		}
		if len(large.cells) != 4096 || len(small[0].cells) != 16 {
			t.Fatalf("tables of 2000 and 4 requests hold %d and %d cells, want 4096 and 16", len(large.cells), len(small[0].cells))
		}
		largeCells := &large.cells[0]
		large.Release()
		for i := range small {
			small[i].Release()
		}
		var tbl ReqTable[int]
		var before, after runtime.MemStats
		started := threads.Count()
		runtime.ReadMemStats(&before)
		fill(&tbl, 2000)
		runtime.ReadMemStats(&after)
		// Mallocs counts the whole process, and the runtime allocates an
		// OS thread's structures when it starts one, as it may to restart
		// the world after ReadMemStats. A fill during which it did is
		// measured again.
		if threads.Count() != started && attempt < 5 {
			continue
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("filling a table to 2000 requests on released cells allocated %d times, want 0; by size class: %s", n, bySizeDelta(&before, &after))
		}
		if &tbl.cells[0] != largeCells {
			t.Errorf("the table holds %d cells, not the released 4096-cell array", len(tbl.cells))
		}
		for k := 1; k <= 2000; k++ {
			if v := tbl.Find(NewRequestID(0, uint64(k))); v == nil || *v != k {
				t.Fatalf("request %d reads %v after the move", k, v)
			}
		}
		return
	}
}

// replay reads two bytes an op — op%3 (0 upsert, 1 delete, 2 find) and an
// index into keys — and compares Len, the structure and Find of every key
// with the model after each.
func (m *reqModel) replay(t *testing.T, data []byte, keys []RequestID) {
	t.Helper()
	for i := 0; i+1 < len(data); i += 2 {
		id := keys[int(data[i+1])%len(keys)]
		switch data[i] % 3 {
		case 0:
			if err := m.upsert(id, i); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		case 1:
			m.del(id)
		}
		if err := m.agree(keys); err != nil {
			t.Fatalf("op %d (%d on %v): %v", i/2, data[i]%3, id, err)
		}
	}
}

// FuzzReqTable replays the input's ops on a new table against a builtin
// map, releases the table, checks it reads empty, and replays the ops again
// on the same table, which takes its released cells back, over a wider key
// alphabet.
func FuzzReqTable(f *testing.F) {
	f.Add([]byte{0, 7, 0, 8, 0, 9, 1, 7, 2, 8, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		drainReleasedCells()
		m := newReqModel()
		m.replay(t, data, fuzzReqKeys)
		m.t.Release()
		clear(m.model)
		if err := m.agree(fuzzReqWideKeys); err != nil {
			t.Fatalf("after Release: %v", err)
		}
		m.replay(t, data, fuzzReqWideKeys)
	})
}
