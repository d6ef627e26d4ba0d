package workload

import (
	"math"
	"math/rand"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 0.8); err == nil {
		t.Error("NewZipf(0, …) must fail")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Error("NewZipf(…, 0) must fail")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("NewZipf(…, -1) must fail")
	}
	// Over a NaN CDF every draw would land on one rank.
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Error("NewZipf(…, NaN) must fail")
	}
	if _, err := NewZipf(10, math.Inf(1)); err == nil {
		t.Error("NewZipf(…, +Inf) must fail")
	}
}

func TestZipfRankRange(t *testing.T) {
	z, err := NewZipf(100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		r := z.Rank(rng)
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d out of [0,100)", r)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Rank 0 must be drawn far more often than rank N-1, and empirical
	// frequencies must roughly match the analytic CDF.
	const n, draws = 1000, 200000
	z, err := NewZipf(n, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Rank(rng)]++
	}
	if counts[0] < counts[n-1]*10 {
		t.Errorf("rank 0 drawn %d times vs rank %d's %d — not skewed enough",
			counts[0], n-1, counts[n-1])
	}
	// Empirical head mass of the top 10% vs analytic.
	head := 0
	for i := 0; i < n/10; i++ {
		head += counts[i]
	}
	got := float64(head) / draws
	want := z.cdf[n/10-1]
	if math.Abs(got-want) > 0.02 {
		t.Errorf("top-10%% mass = %.3f, analytic %.3f", got, want)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"defaults ok", Config{TotalRequests: 1000}, false},
		{"paper", Config{TotalRequests: 3_990_000}, false},
		{"zero total", Config{}, true},
		{"bad fill fraction", Config{TotalRequests: 100, FillFraction: 1.5}, true},
		{"bad alpha", Config{TotalRequests: 100, Alpha: -2}, true},
		// Every comparison with NaN is false, so a range check written as
		// a rejection lets NaN through; each float field must refuse it.
		{"NaN alpha", Config{TotalRequests: 100, Alpha: math.NaN()}, true},
		{"infinite alpha", Config{TotalRequests: 100, Alpha: math.Inf(1)}, true},
		{"NaN one-timer prob", Config{TotalRequests: 100, OneTimerProb: math.NaN()}, true},
		{"NaN fill fraction", Config{TotalRequests: 100, FillFraction: math.NaN()}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); (err != nil) != tc.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestGeneratorEmitsExactlyTotal(t *testing.T) {
	g, err := New(DefaultConfig(10000))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := g.Next(); !ok {
			break
		}
		n++
	}
	if n != 10000 {
		t.Errorf("emitted %d, want 10000", n)
	}
	if _, ok := g.Next(); ok {
		t.Error("Next after exhaustion must report !ok")
	}
}

func TestGeneratorDeterministicBySeed(t *testing.T) {
	mk := func(seed int64) []ids.ObjectID {
		cfg := DefaultConfig(5000)
		cfg.Seed = seed
		g, err := New(cfg)
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
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := mk(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratorPhaseBoundaries(t *testing.T) {
	g, err := New(DefaultConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	fillEnd, phase2End := g.Boundaries()
	if fillEnd != 1000 {
		t.Errorf("fillEnd = %d, want 1000 (25%%)", fillEnd)
	}
	if phase2End != 2500 {
		t.Errorf("phase2End = %d, want 2500", phase2End)
	}
}

func TestGeneratorFillPhaseMostlyUnique(t *testing.T) {
	// §V.1.6: "a simple fill phase with almost no request repetitions".
	g, err := New(DefaultConfig(40000))
	if err != nil {
		t.Fatal(err)
	}
	fillEnd, _ := g.Boundaries()
	seen := make(map[ids.ObjectID]bool, fillEnd)
	repeats := 0
	for i := 0; i < fillEnd; i++ {
		obj, ok := g.Next()
		if !ok {
			t.Fatal("stream ended during fill")
		}
		if seen[obj] {
			repeats++
		}
		seen[obj] = true
	}
	if frac := float64(repeats) / float64(fillEnd); frac > 0.08 {
		t.Errorf("fill repeat fraction = %.3f, want <= 0.08", frac)
	}
	if len(seen) < fillEnd*9/10 {
		t.Errorf("fill introduced %d distinct objects of %d requests", len(seen), fillEnd)
	}
}

func TestGeneratorPhase3ReplaysPhase2(t *testing.T) {
	// §V.1.6: phase 2 "repeats itself in Phase 3".
	g, err := New(DefaultConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	fillEnd, phase2End := g.Boundaries()
	all := make([]ids.ObjectID, 0, 4000)
	for {
		obj, ok := g.Next()
		if !ok {
			break
		}
		all = append(all, obj)
	}
	phase2 := all[fillEnd:phase2End]
	phase3 := all[phase2End:]
	if len(phase3) == 0 {
		t.Fatal("empty phase 3")
	}
	for i := range phase3 {
		if phase3[i] != phase2[i] {
			t.Fatalf("phase 3 diverges from phase 2 at offset %d: %v vs %v",
				i, phase3[i], phase2[i])
		}
	}
}

func TestGeneratorRequestPhaseDrawsFromPopulation(t *testing.T) {
	g, err := New(DefaultConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	fillEnd, _ := g.Boundaries()
	pop := ids.ObjectID(g.Population())
	oneTimers := 0
	total := 0
	for i := 0; i < 4000; i++ {
		obj, ok := g.Next()
		if !ok {
			break
		}
		if i < fillEnd {
			continue
		}
		total++
		if obj >= ids.ObjectID(oneTimerBase) {
			oneTimers++
			continue
		}
		if obj < 1 || obj > pop {
			t.Fatalf("request-phase object %v outside population [1,%d]", obj, pop)
		}
	}
	// Default OneTimerProb is 0.3; allow generous slack on 3000 draws.
	frac := float64(oneTimers) / float64(total)
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("one-timer fraction = %.3f, want ≈0.3", frac)
	}
}

func TestGeneratorOneTimersDisabled(t *testing.T) {
	cfg := DefaultConfig(2000)
	cfg.OneTimerProb = -1 // negative selects exactly zero
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		obj, ok := g.Next()
		if !ok {
			break
		}
		if obj >= ids.ObjectID(oneTimerBase) {
			t.Fatalf("request %d is a one-timer despite OneTimerProb<0", i)
		}
	}
}

func TestGeneratorOneTimersUniqueWithinPhase(t *testing.T) {
	g, err := New(DefaultConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	fillEnd, phase2End := g.Boundaries()
	seen := make(map[ids.ObjectID]bool)
	for i := 0; i < phase2End; i++ {
		obj, ok := g.Next()
		if !ok {
			t.Fatal("stream ended early")
		}
		if i < fillEnd || obj < ids.ObjectID(oneTimerBase) {
			continue
		}
		if seen[obj] {
			t.Fatalf("one-timer %v repeated within phase 2", obj)
		}
		seen[obj] = true
	}
	if len(seen) == 0 {
		t.Fatal("no one-timers generated in phase 2")
	}
}

func TestGeneratorReset(t *testing.T) {
	g, err := New(DefaultConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	first := make([]ids.ObjectID, 0, 2000)
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
			if i != len(first) {
				t.Fatalf("replay length %d, want %d", i, len(first))
			}
			break
		}
		if obj != first[i] {
			t.Fatalf("reset replay diverged at %d", i)
		}
	}
}
