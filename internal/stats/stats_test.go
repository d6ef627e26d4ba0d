package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestOnlineBasics(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Max() != 0 {
		t.Error("zero-value Online must report zeros")
	}
	for _, x := range []float64{-3, -5, -1, -4} {
		o.Add(x)
	}
	if !almost(o.Mean(), -3.25) || o.Max() != -1 {
		t.Errorf("Mean/Max = %v/%v, want -3.25/-1 (the first observation sets the maximum)", o.Mean(), o.Max())
	}
	o = Online{}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if !almost(o.Mean(), 5) || o.Max() != 9 {
		t.Errorf("Mean/Max = %v/%v, want 5/9", o.Mean(), o.Max())
	}
}

func TestMovingAverageExact(t *testing.T) {
	m := NewMovingAverage(3)
	if m.Value() != 0 || m.N() != 0 {
		t.Error("empty window must report 0")
	}
	m.Add(3)
	if !almost(m.Value(), 3) {
		t.Errorf("Value = %v", m.Value())
	}
	m.Add(6)
	m.Add(9)
	if !almost(m.Value(), 6) || m.N() != 3 {
		t.Errorf("Value = %v, N = %d", m.Value(), m.N())
	}
	m.Add(12) // 3 slides out
	if !almost(m.Value(), 9) || m.N() != 3 {
		t.Errorf("Value after slide = %v", m.Value())
	}
}

func TestMovingAverageMatchesNaive(t *testing.T) {
	prop := func(xs []float64, sizeSeed uint8) bool {
		size := int(sizeSeed%9) + 1
		m := NewMovingAverage(size)
		for i, x := range xs {
			// Bound the values to keep the naive sum stable.
			x = math.Mod(x, 1000)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 1
			}
			m.Add(x)
			lo := i + 1 - size
			if lo < 0 {
				lo = 0
			}
			var sum float64
			for j := lo; j <= i; j++ {
				v := math.Mod(xs[j], 1000)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 1
				}
				sum += v
			}
			naive := sum / float64(i+1-lo)
			if math.Abs(m.Value()-naive) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMovingAveragePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMovingAverage(0) must panic")
		}
	}()
	NewMovingAverage(0)
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10, 10) // buckets [0,10) … [90,100) + overflow
	for v := 0; v < 100; v++ {
		h.Add(v)
	}
	// Uniform over [0,100): the median must land near 50, p90 near 90.
	if q := h.Quantile(0.5); math.Abs(q-50) > 10 {
		t.Errorf("median = %v, want ≈50", q)
	}
	if q := h.Quantile(0.9); math.Abs(q-90) > 10 {
		t.Errorf("p90 = %v, want ≈90", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Errorf("q0 = %v", q)
	}
	// Out-of-range and empty cases.
	if h.Quantile(-1) != 0 || h.Quantile(2) != 0 {
		t.Error("out-of-range quantiles must return 0")
	}
	var empty Histogram
	if (&empty).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	// Overflow bucket reports its lower bound.
	ho := NewHistogram(2, 10)
	ho.Add(1000)
	if q := ho.Quantile(1); q != 20 {
		t.Errorf("overflow quantile = %v, want 20", q)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4, 2) // buckets [0,2) [2,4) [4,6) [6,8) overflow
	for _, v := range []int{0, 1, 2, 5, 7, 100, -3} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d", h.Total())
	}
	// Bucket 0 holds 0, 1 and -3; the overflow bucket 100.
	if b := h.Buckets(); !reflect.DeepEqual(b, []uint64{3, 1, 1, 1, 1}) {
		t.Errorf("buckets = %v, want [3 1 1 1 1]", b)
	}
	s := h.String()
	if !strings.Contains(s, ">=8") {
		t.Errorf("String missing overflow label:\n%s", s)
	}
	if NewHistogram(2, 1).String() != "(empty histogram)" {
		t.Error("empty histogram string wrong")
	}
}

func TestHistogramMergeEdgeCases(t *testing.T) {
	// Merging an empty histogram is a no-op.
	h := NewHistogram(4, 10)
	for _, v := range []int{5, 15, 100} {
		h.Add(v)
	}
	before := h.Buckets()
	h.Merge(NewHistogram(4, 10))
	if h.Total() != 3 || !reflect.DeepEqual(h.Buckets(), before) {
		t.Errorf("merging an empty histogram changed counts: %v -> %v", before, h.Buckets())
	}

	// Merging into an empty histogram copies the source exactly.
	dst := NewHistogram(4, 10)
	dst.Merge(h)
	if !reflect.DeepEqual(dst.Buckets(), h.Buckets()) || dst.Total() != h.Total() {
		t.Errorf("merge into empty: got %v total %d, want %v total %d",
			dst.Buckets(), dst.Total(), h.Buckets(), h.Total())
	}
	// And quantiles agree with the source afterwards.
	if dst.Quantile(0.5) != h.Quantile(0.5) {
		t.Errorf("median diverged after merge: %v vs %v", dst.Quantile(0.5), h.Quantile(0.5))
	}

	// Single-sample merge lands in the right bucket, including overflow.
	one := NewHistogram(4, 10)
	one.Add(39)
	sum := NewHistogram(4, 10)
	sum.Merge(one)
	if sum.Total() != 1 || sum.Buckets()[3] != 1 {
		t.Errorf("single-sample merge: %v total %d", sum.Buckets(), sum.Total())
	}
	over := NewHistogram(4, 10)
	over.Add(1 << 20)
	sum.Merge(over)
	if sum.Buckets()[4] != 1 {
		t.Errorf("overflow sample lost in merge: %v", sum.Buckets())
	}

	// Merge-into-self doubles every bucket and the total.
	self := NewHistogram(4, 10)
	for _, v := range []int{-1, 0, 12, 25, 999} {
		self.Add(v)
	}
	want := self.Buckets()
	for i := range want {
		want[i] *= 2
	}
	self.Merge(self)
	if self.Total() != 10 || !reflect.DeepEqual(self.Buckets(), want) {
		t.Errorf("merge-into-self: got %v total %d, want %v total 10",
			self.Buckets(), self.Total(), want)
	}
}

func TestHistogramMergeLayoutMismatch(t *testing.T) {
	for _, other := range []*Histogram{NewHistogram(4, 5), NewHistogram(8, 10)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("merging mismatched layouts must panic")
				}
			}()
			NewHistogram(4, 10).Merge(other)
		}()
	}
}
