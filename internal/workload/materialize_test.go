package workload

import (
	"sync"
	"testing"
)

func materializeConfig(seed int64) Config {
	return Config{TotalRequests: 5_000, PopulationSize: 200, Seed: seed}
}

func TestMaterializeMatchesGenerator(t *testing.T) {
	cfg := materializeConfig(7)
	tr, err := Materialize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cur := tr.Cursor()
	if cur.Total() != gen.Total() {
		t.Fatalf("cursor total %d, generator total %d", cur.Total(), gen.Total())
	}
	for i := 0; ; i++ {
		want, wantOK := gen.Next()
		got, gotOK := cur.Next()
		if gotOK != wantOK {
			t.Fatalf("request %d: cursor ok=%v, generator ok=%v", i, gotOK, wantOK)
		}
		if !wantOK {
			break
		}
		if got != want {
			t.Fatalf("request %d: cursor %v, generator %v", i, got, want)
		}
	}
	gFill, gPhase2 := gen.Boundaries()
	tFill, tPhase2 := tr.Boundaries()
	if tFill != gFill || tPhase2 != gPhase2 {
		t.Errorf("boundaries (%d,%d), want (%d,%d)", tFill, tPhase2, gFill, gPhase2)
	}
}

func TestCursorResetAndIndependence(t *testing.T) {
	tr, err := Materialize(materializeConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	a, b := tr.Cursor(), tr.Cursor()
	first, _ := a.Next()
	a.Next()
	// b is untouched by a's progress.
	if got, _ := b.Next(); got != first {
		t.Errorf("second cursor started at %v, want %v", got, first)
	}
	a.Reset()
	if got, _ := a.Next(); got != first {
		t.Errorf("after Reset got %v, want %v", got, first)
	}
}

func TestTraceCacheSharesOneTrace(t *testing.T) {
	c := NewTraceCache(4)
	cfg := materializeConfig(3)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		traces = map[*Trace]bool{}
	)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := c.Get(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			traces[tr] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(traces) != 1 {
		t.Errorf("%d distinct traces materialized for one config, want 1", len(traces))
	}
	if len(c.entries) != 1 {
		t.Errorf("cache holds %d entries, want 1", len(c.entries))
	}
}

func TestTraceCacheEvictsLRU(t *testing.T) {
	c := NewTraceCache(2)
	a, b, d := materializeConfig(1), materializeConfig(2), materializeConfig(3)
	trA, err := c.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(b); err != nil {
		t.Fatal(err)
	}
	// Touch a so b becomes the LRU entry, then insert a third config.
	if tr, err := c.Get(a); err != nil || tr != trA {
		t.Fatalf("re-Get(a) = %p, %v; want cached %p", tr, err, trA)
	}
	if _, err := c.Get(d); err != nil {
		t.Fatal(err)
	}
	if len(c.entries) != 2 {
		t.Fatalf("cache holds %d entries, want 2", len(c.entries))
	}
	if tr, err := c.Get(a); err != nil || tr != trA {
		t.Errorf("a was evicted instead of LRU b (got %p, %v, want %p)", tr, err, trA)
	}
}

func TestTraceCacheCachesErrors(t *testing.T) {
	c := NewTraceCache(2)
	bad := Config{TotalRequests: -1}
	if _, err := c.Get(bad); err == nil {
		t.Fatal("invalid config must fail")
	}
	if _, err := c.Get(bad); err == nil {
		t.Fatal("cached error lost on second Get")
	}
}
