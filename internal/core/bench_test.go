package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

// Micro-benchmarks for the ordered-table backends: the paper's Fig. 15
// bottleneck (list), its own implementation (slice + binary search), and
// the default block B-tree. Run with
// `go test -bench=Ordered ./internal/core`.

func benchmarkOrderedUpdate(b *testing.B, backend Backend, size int) {
	tbl := NewOrdered(size, backend)
	rng := rand.New(rand.NewSource(1))
	// Pre-fill.
	for i := 0; i < size; i++ {
		tbl.Insert(mkBenchEntry(ids.ObjectID(i), int64(rng.Intn(1_000_000))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := ids.ObjectID(rng.Intn(size))
		if e := tbl.Remove(obj); e != nil {
			e.Avg = int64(rng.Intn(1_000_000))
			tbl.Insert(e)
		} else {
			tbl.Insert(mkBenchEntry(obj, int64(rng.Intn(1_000_000))))
		}
	}
}

func mkBenchEntry(obj ids.ObjectID, key int64) *Entry {
	return &Entry{Object: obj, Avg: key, Hits: 2}
}

func BenchmarkOrderedUpdate(b *testing.B) {
	for _, backend := range []Backend{BackendBTree, BackendSlice, BackendList} {
		for _, size := range []int{1_000, 10_000} {
			// The list backend at 10k is painfully slow by design;
			// keep it to show the gap, it is the whole point.
			b.Run(fmt.Sprintf("%s/%d", backend, size), func(b *testing.B) {
				benchmarkOrderedUpdate(b, backend, size)
			})
		}
	}
	// The reference multiple-table size (§V.2), default backend only.
	b.Run(fmt.Sprintf("%s/%d", BackendBTree, benchMultiple), func(b *testing.B) {
		benchmarkOrderedUpdate(b, BackendBTree, benchMultiple)
	})
}

// benchSink keeps the compiler from discarding a benchmarked lookup.
var benchSink *Entry

// BenchmarkDirectory measures the unified directory alone at the reference
// population (20k+20k+10k entries), next to a builtin map of the same
// content: the floor the layer metric core.lookup_ns_per_op is read against.
// Keys are what the sim workloads draw — dense fill IDs plus one-timers
// counting up from 2^40 — visited in shuffled order; churn forgets one
// object and indexes a new one per iteration, as a first sighting on a full
// single-table does.
func BenchmarkDirectory(b *testing.B) {
	const population = benchSingle + benchMultiple + benchCaching
	rng := rand.New(rand.NewSource(1))
	entries := make([]Entry, population)
	for i := range entries {
		entries[i].Object = ids.ObjectID(i/2 + i%2<<40)
	}
	rng.Shuffle(population, func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	absent := func(i int) ids.ObjectID { return ids.ObjectID(1<<41 + i) }

	fill := func() (*directory, map[ids.ObjectID]*Entry) {
		d := newDirectory(population+1, rng.Uint64())
		m := make(map[ids.ObjectID]*Entry, population)
		for i := range entries {
			d.set(entries[i].Object, &entries[i])
			m[entries[i].Object] = &entries[i]
		}
		return d, m
	}
	// churned is the key each entry is currently indexed under.
	churned := func() []ids.ObjectID {
		objs := make([]ids.ObjectID, population)
		for i := range objs {
			objs[i] = entries[i].Object
		}
		return objs
	}
	d, m := fill()
	b.Run("flat/get-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = d.get(entries[i%population].Object)
		}
	})
	b.Run("map/get-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = m[entries[i%population].Object]
		}
	})
	b.Run("flat/get-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = d.get(absent(i))
		}
	})
	b.Run("map/get-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = m[absent(i)]
		}
	})
	b.Run("flat/churn", func(b *testing.B) {
		d, _ := fill()
		objs := churned()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % population
			d.del(objs[k])
			objs[k] = absent(i)
			d.set(objs[k], &entries[k])
		}
	})
	b.Run("map/churn", func(b *testing.B) {
		_, m := fill()
		objs := churned()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % population
			delete(m, objs[k])
			objs[k] = absent(i)
			m[objs[k]] = &entries[k]
		}
	})
}

// benchBackends are the backends the reference-size benchmarks cover.
var benchBackends = []Backend{BackendBTree, BackendSlice}

// Paper reference table shape (§V.2): 20k/20k/10k per proxy.
const (
	benchSingle   = 20_000
	benchMultiple = 20_000
	benchCaching  = 10_000
)

// benchFill drives a deterministic uniform stream over `population` objects
// through tbl until all three tables are at steady-state occupancy.
func benchFill(tbl *Tables, population int, steps int) int64 {
	state := uint64(0x9E3779B97F4A7C15)
	now := int64(0)
	for i := 0; i < steps; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		now++
		tbl.Update(ids.ObjectID(state%uint64(population)), ids.NodeID(state>>32%5), now)
	}
	return now
}

func newBenchTables(b *testing.B, backend Backend) *Tables {
	b.Helper()
	tbl, err := NewTables(Config{
		SingleSize: benchSingle, MultipleSize: benchMultiple, CachingSize: benchCaching,
		Backend: backend,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// BenchmarkTablesUpdate measures the full Update_Entry state machine — as
// the proxy drives it, Update followed by Recycle — at the paper's
// reference table shape (20k/20k/10k, §V.2) under four access mixes:
//
//   - hit: every request re-touches a cached object (Part 1, in-place).
//   - miss: every request is a never-seen object (Part 4 + single-table drop).
//   - promote: fresh objects touched twice back-to-back, so every second
//     update is a single→multiple promotion with its demotion chain.
//   - evict: fresh objects touched three times, driving constant caching-
//     table admission and worst-case demotion once the cache is full.
func BenchmarkTablesUpdate(b *testing.B) {
	mixes := []struct {
		name string
		run  func(b *testing.B, tbl *Tables, now int64)
	}{
		{"hit", func(b *testing.B, tbl *Tables, now int64) {
			cached := tbl.Caching().Entries()
			if len(cached) == 0 {
				b.Fatal("prefill left the caching table empty")
			}
			objs := make([]ids.ObjectID, len(cached))
			for i, e := range cached {
				objs[i] = e.Object
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				tbl.Recycle(tbl.Update(objs[i%len(objs)], ids.NodeID(i%5), now))
			}
		}},
		{"miss", func(b *testing.B, tbl *Tables, now int64) {
			next := uint64(1 << 40) // disjoint from every prefill object
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				next++
				tbl.Recycle(tbl.Update(ids.ObjectID(next), ids.NodeID(i%5), now))
			}
		}},
		{"promote", func(b *testing.B, tbl *Tables, now int64) {
			next := uint64(1 << 40)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				if i%2 == 0 {
					next++
				}
				tbl.Recycle(tbl.Update(ids.ObjectID(next), ids.NodeID(i%5), now))
			}
		}},
		{"evict", func(b *testing.B, tbl *Tables, now int64) {
			next := uint64(1 << 40)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				if i%3 == 0 {
					next++
				}
				tbl.Recycle(tbl.Update(ids.ObjectID(next), ids.NodeID(i%5), now))
			}
		}},
	}
	for _, backend := range benchBackends {
		for _, mix := range mixes {
			b.Run(backend.String()+"/"+mix.name, func(b *testing.B) {
				tbl := newBenchTables(b, backend)
				now := benchFill(tbl, 25_000, 200_000)
				b.ReportAllocs()
				mix.run(b, tbl, now)
			})
		}
	}
}

// BenchmarkTablesLookup measures the read path (caching → multiple → single
// search order, §IV.3) on full reference-size tables: a round-robin over
// resident objects of all three kinds, plus a pure-miss variant.
func BenchmarkTablesLookup(b *testing.B) {
	for _, backend := range benchBackends {
		b.Run(backend.String()+"/hit", func(b *testing.B) {
			tbl := newBenchTables(b, backend)
			benchFill(tbl, 25_000, 200_000)
			var objs []ids.ObjectID
			for _, e := range tbl.Caching().Entries() {
				objs = append(objs, e.Object)
			}
			for _, e := range tbl.Multiple().Entries() {
				objs = append(objs, e.Object)
			}
			for _, e := range tbl.Single().Entries() {
				objs = append(objs, e.Object)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, kind := tbl.Lookup(objs[i%len(objs)]); kind == KindNone {
					b.Fatal("resident object not found")
				}
			}
		})
		b.Run(backend.String()+"/miss", func(b *testing.B) {
			tbl := newBenchTables(b, backend)
			benchFill(tbl, 25_000, 200_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, kind := tbl.Lookup(ids.ObjectID(uint64(i) + 1<<40)); kind != KindNone {
					b.Fatal("phantom hit")
				}
			}
		})
	}
}

// BenchmarkSingleTable measures the single-table's own by-object path in
// both modes. Since the index map moved into the Tables directory, both
// modes search element-wise here; the hot path goes through Tables and is
// covered by BenchmarkTablesUpdate.
func BenchmarkSingleTable(b *testing.B) {
	for _, scan := range []bool{false, true} {
		name := "indexed"
		if scan {
			name = "scan"
		}
		b.Run(name, func(b *testing.B) {
			tbl := NewSingleTable(2000, scan)
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 2000; i++ {
				tbl.InsertTop(NewEntry(ids.ObjectID(i), 0, int64(i)))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj := ids.ObjectID(rng.Intn(4000))
				if e := tbl.Remove(obj); e != nil {
					tbl.InsertTop(e)
				} else {
					tbl.InsertTop(NewEntry(obj, 0, int64(i)))
				}
			}
		})
	}
}
