package lru

import (
	"testing"
	"testing/quick"
)

func TestGetPut(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Error("Get on empty cache must miss")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %d,%v", v, ok)
	}
	if c.Len() != 2 || c.Cap() != 2 {
		t.Errorf("Len/Cap = %d/%d", c.Len(), c.Cap())
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Get(1)          // 1 is now most recent
	if !c.Put(3, 3) { // must evict 2
		t.Error("Put into full cache must report eviction")
	}
	if c.Contains(2) {
		t.Error("2 should have been evicted")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Error("1 and 3 should remain")
	}
}

func TestPutUpdatesExisting(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "x")
	if evicted := c.Put(1, "y"); evicted {
		t.Error("updating in place must not evict")
	}
	if v, _ := c.Get(1); v != "y" {
		t.Errorf("value = %q, want y", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestContainsDoesNotPromote(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	if !c.Contains(1) {
		t.Fatal("1 is cached")
	}
	c.Put(3, 3)
	if c.Contains(1) {
		t.Error("Contains must not refresh recency; 1 should be evicted")
	}
}

func TestNeverExceedsCapacity(t *testing.T) {
	prop := func(keys []uint8, capSeed uint8) bool {
		capacity := int(capSeed%7) + 1
		c := New[uint8, int](capacity)
		for i, k := range keys {
			c.Put(k, i)
			if c.Len() > capacity {
				return false
			}
			if v, ok := c.Get(k); !ok || v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
