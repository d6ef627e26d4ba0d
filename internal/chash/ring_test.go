package chash

import (
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

func members(n int) []ids.NodeID {
	out := make([]ids.NodeID, n)
	for i := range out {
		out[i] = ids.NodeID(i)
	}
	return out
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(members(3), -1); err == nil {
		t.Error("negative replicas must fail")
	}
	r, err := NewRing(members(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.members) != 3 {
		t.Errorf("%d members, want 3", len(r.members))
	}
	if err := r.Add(0); err == nil {
		t.Error("duplicate Add must fail")
	}
}

func TestRingEmptyAssign(t *testing.T) {
	r, err := NewRing(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Assign(1); got != ids.None {
		t.Errorf("empty ring Assign = %v, want None", got)
	}
}

func TestRingDeterministic(t *testing.T) {
	a, _ := NewRing(members(4), 0)
	b, _ := NewRing(members(4), 0)
	for obj := ids.ObjectID(0); obj < 2000; obj++ {
		if a.Assign(obj) != b.Assign(obj) {
			t.Fatalf("rings disagree on %v", obj)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r, _ := NewRing(members(5), 0)
	counts := make(map[ids.NodeID]int)
	const n = 50000
	for obj := ids.ObjectID(0); obj < n; obj++ {
		counts[r.Assign(obj)]++
	}
	for id, c := range counts {
		if c < n/5*7/10 || c > n/5*13/10 {
			t.Errorf("member %v owns %d of %d (want ≈%d ±30%%)", id, c, n, n/5)
		}
	}
}

func TestRingMinimalDisruptionOnJoin(t *testing.T) {
	before, _ := NewRing(members(5), 0)
	after, _ := NewRing(members(5), 0)
	if err := after.Add(5); err != nil {
		t.Fatal(err)
	}
	const n = 20000
	moved := 0
	for obj := ids.ObjectID(0); obj < n; obj++ {
		a, b := before.Assign(obj), after.Assign(obj)
		if a != b {
			moved++
			if b != ids.NodeID(5) {
				t.Fatalf("object %v moved between survivors %v → %v", obj, a, b)
			}
		}
	}
	frac := float64(moved) / n
	if frac < 0.08 || frac > 0.28 {
		t.Errorf("moved fraction = %.3f, want ≈1/6", frac)
	}
}
