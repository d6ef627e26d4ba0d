package workload

import (
	"math"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

func TestShiftConfigValidate(t *testing.T) {
	valid := ShiftConfig{TotalRequests: 100, Period: 10, Population: 5}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []ShiftConfig{
		{Period: 10, Population: 5},
		{TotalRequests: 100, Population: 5},
		{TotalRequests: 100, Period: 10},
		{TotalRequests: 100, Period: 10, Population: 5, OneTimerProb: 1},
		{TotalRequests: 100, Period: 10, Population: 5, OneTimerProb: math.NaN()},
		{TotalRequests: 100, Period: 10, Population: 5, Alpha: -1},
		{TotalRequests: 100, Period: 10, Population: 5, Alpha: math.NaN()},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d must fail validation", i)
		}
	}
}

func TestShiftEpochsDisjoint(t *testing.T) {
	g, err := NewShift(ShiftConfig{TotalRequests: 3000, Period: 1000, Population: 50})
	if err != nil {
		t.Fatal(err)
	}
	perEpoch := make([]map[ids.ObjectID]bool, 3)
	for i := range perEpoch {
		perEpoch[i] = make(map[ids.ObjectID]bool)
	}
	for i := 0; i < 3000; i++ {
		obj, ok := g.Next()
		if !ok {
			t.Fatal("stream ended early")
		}
		perEpoch[i/1000][obj] = true // Period 1000
	}
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			for obj := range perEpoch[a] {
				if perEpoch[b][obj] {
					t.Fatalf("object %v appears in epochs %d and %d", obj, a, b)
				}
			}
		}
	}
	for i, m := range perEpoch {
		if len(m) == 0 || len(m) > 50 {
			t.Errorf("epoch %d touched %d objects, want 1..50", i, len(m))
		}
	}
}

func TestShiftDeterministicAndResettable(t *testing.T) {
	mk := func() []ids.ObjectID {
		g, err := NewShift(ShiftConfig{TotalRequests: 500, Period: 100, Population: 20, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var out []ids.ObjectID
		for {
			obj, ok := g.Next()
			if !ok {
				return out
			}
			out = append(out, obj)
		}
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed shift streams diverged at %d", i)
		}
	}

	g, err := NewShift(ShiftConfig{TotalRequests: 500, Period: 100, Population: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	first := make([]ids.ObjectID, 0, 500)
	for {
		obj, ok := g.Next()
		if !ok {
			break
		}
		first = append(first, obj)
	}
	g.Reset()
	for i := 0; ; i++ {
		obj, ok := g.Next()
		if !ok {
			break
		}
		if obj != first[i] {
			t.Fatalf("reset replay diverged at %d", i)
		}
	}
}

func TestShiftEpochsCount(t *testing.T) {
	g, err := NewShift(ShiftConfig{TotalRequests: 2500, Period: 1000, Population: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.Epochs() != 3 {
		t.Errorf("Epochs = %d, want 3", g.Epochs())
	}
	if g.Total() != 2500 {
		t.Errorf("Total = %d", g.Total())
	}
}

func TestShiftOneTimers(t *testing.T) {
	g, err := NewShift(ShiftConfig{
		TotalRequests: 5000, Period: 1000, Population: 10, OneTimerProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	oneTimers := 0
	for {
		obj, ok := g.Next()
		if !ok {
			break
		}
		if obj >= ids.ObjectID(oneTimerBase) {
			oneTimers++
		}
	}
	frac := float64(oneTimers) / 5000
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("one-timer fraction = %.3f, want ≈0.5", frac)
	}
}
