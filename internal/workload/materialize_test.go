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
	objs := tr.Objects()
	if len(objs) != gen.Total() {
		t.Fatalf("trace holds %d requests, generator total %d", len(objs), gen.Total())
	}
	for i, got := range objs {
		want, ok := gen.Next()
		if !ok {
			t.Fatalf("generator ended at request %d of the trace's %d", i, len(objs))
		}
		if got != want {
			t.Fatalf("request %d: trace %v, generator %v", i, got, want)
		}
	}
	if obj, ok := gen.Next(); ok {
		t.Fatalf("generator yields %v past the trace's end", obj)
	}
	gFill, gPhase2 := gen.Boundaries()
	tFill, tPhase2 := tr.Boundaries()
	if tFill != gFill || tPhase2 != gPhase2 {
		t.Errorf("boundaries (%d,%d), want (%d,%d)", tFill, tPhase2, gFill, gPhase2)
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
