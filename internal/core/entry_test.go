package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/adc-sim/adc/internal/ids"
)

func TestNewEntryInitialValues(t *testing.T) {
	e := NewEntry(7, 3, 100)
	if e.Avg != 0 {
		t.Errorf("new entry Avg = %d, want 0 (paper §IV.4)", e.Avg)
	}
	if e.Hits != 1 {
		t.Errorf("new entry Hits = %d, want 1", e.Hits)
	}
	if e.Last != 100 {
		t.Errorf("new entry Last = %d, want 100", e.Last)
	}
	if e.Location != 3 {
		t.Errorf("new entry Location = %v, want Proxy[3]", e.Location)
	}
}

func TestCalcAverageSecondAccessUsesRawGap(t *testing.T) {
	// Paper Fig. 9: "the second time when the object got accessed, the
	// local_time and the timestamp value is used to compute the
	// approximate average rate" — i.e. avg = now − last, not halved.
	e := NewEntry(1, 0, 100)
	e.CalcAverage(150)
	if e.Avg != 50 {
		t.Errorf("second-access Avg = %d, want 50", e.Avg)
	}
	if e.Hits != 2 {
		t.Errorf("Hits = %d, want 2", e.Hits)
	}
	if e.Last != 150 {
		t.Errorf("Last = %d, want 150", e.Last)
	}
}

func TestCalcAverageMovingAverage(t *testing.T) {
	// Third and later accesses: avg = (avg + gap) / 2.
	e := NewEntry(1, 0, 100)
	e.CalcAverage(150) // avg = 50
	e.CalcAverage(250) // avg = (50 + 100) / 2 = 75
	if e.Avg != 75 {
		t.Errorf("third-access Avg = %d, want 75", e.Avg)
	}
	e.CalcAverage(255) // avg = (75 + 5) / 2 = 40
	if e.Avg != 40 {
		t.Errorf("fourth-access Avg = %d, want 40", e.Avg)
	}
	if e.Hits != 4 {
		t.Errorf("Hits = %d, want 4", e.Hits)
	}
}

// TestCalcAverageSaturatesHits: Hits stops at math.MaxInt32 instead of
// wrapping negative, where it would read as a first sighting (Hits ≤ 1)
// and reseed the average with the raw gap.
func TestCalcAverageSaturatesHits(t *testing.T) {
	e := NewEntry(1, 0, 100)
	e.Avg, e.Hits = 40, math.MaxInt32
	e.CalcAverage(120) // avg = (40 + 20) / 2 = 30
	if e.Hits != math.MaxInt32 {
		t.Errorf("Hits = %d, want it held at %d", e.Hits, math.MaxInt32)
	}
	if e.Avg != 30 || e.Last != 120 {
		t.Errorf("Avg, Last = %d, %d; want the moving average 30, 120", e.Avg, e.Last)
	}
}

func TestCalcAverageRecencyBeatsHistory(t *testing.T) {
	// §III.3.1: the HITS value is deliberately ignored; an object hot in
	// the distant past but cold now must age out. After a long gap the
	// average must jump up regardless of how many historical hits exist.
	hot := NewEntry(1, 0, 0)
	for now := int64(1); now <= 100; now++ {
		hot.CalcAverage(now) // 100 requests at gap 1 → avg ≈ 1
	}
	if hot.Avg > 2 {
		t.Fatalf("hot entry Avg = %d, want <= 2", hot.Avg)
	}
	hot.CalcAverage(10_100) // one request after a gap of 10000
	if hot.Avg < 5000 {
		t.Errorf("after a 10k gap Avg = %d, want >= 5000 (recency must dominate)", hot.Avg)
	}
}

func TestAgedAverageFormula(t *testing.T) {
	// Fig. 4: T_age = (T_avg + (T_now − T_last)) / 2.
	e := &Entry{Object: 1, Avg: 100, Last: 500}
	if got := e.AgedAverage(700); got != 150 {
		t.Errorf("AgedAverage(700) = %d, want (100+200)/2 = 150", got)
	}
	if got := e.AgedAverage(500); got != 50 {
		t.Errorf("AgedAverage(500) = %d, want 50", got)
	}
}

// TestKeyOrderEquivalentToAgedOrder is the property the whole ordered-table
// design rests on: for any two entries and any common instant, ordering by
// the static Key equals ordering by the aged average (paper §III.4 claims
// the established table order is stable under aging).
func TestKeyOrderEquivalentToAgedOrder(t *testing.T) {
	prop := func(avg1, last1, avg2, last2 int32, nowOffset uint16) bool {
		a := &Entry{Object: 1, Avg: int64(avg1), Last: int64(last1)}
		b := &Entry{Object: 2, Avg: int64(avg2), Last: int64(last2)}
		now := maxI64(a.Last, b.Last) + int64(nowOffset)
		// Compare unhalved aged values to avoid integer-division
		// ties that the /2 in AgedAverage introduces.
		agedA := a.Avg + (now - a.Last)
		agedB := b.Avg + (now - b.Last)
		if agedA == agedB {
			return a.Key() == b.Key()
		}
		return (agedA < agedB) == (a.Key() < b.Key())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestAgingPreservesRelativeOrder: advancing time never reorders entries.
func TestAgingPreservesRelativeOrder(t *testing.T) {
	a := &Entry{Object: 1, Avg: 10, Last: 90}
	b := &Entry{Object: 2, Avg: 50, Last: 100}
	for _, now := range []int64{100, 200, 1000, 1_000_000} {
		la := a.Avg + (now - a.Last)
		lb := b.Avg + (now - b.Last)
		if (la < lb) != (a.Key() < b.Key()) {
			t.Errorf("at now=%d order by aged value disagrees with Key order", now)
		}
	}
}

func TestLessTieBreaksByObject(t *testing.T) {
	a := &Entry{Object: 5, Avg: 10, Last: 10}
	b := &Entry{Object: 9, Avg: 10, Last: 10}
	if !less(a, b) || less(b, a) {
		t.Error("equal keys must order by ObjectID for determinism")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNone:     "none",
		KindCaching:  "caching",
		KindMultiple: "multiple",
		KindSingle:   "single",
		Kind(42):     "Kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestEntryStringMatchesPaperLayout(t *testing.T) {
	e := &Entry{Object: 52, Location: ids.NodeID(4), Last: 3356, Avg: 123, Hits: 42}
	got := e.String()
	for _, want := range []string{"www.xy52", "Proxy[4]", "3356", "123", "42"} {
		if !contains(got, want) {
			t.Errorf("Entry.String() = %q, missing %q", got, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
