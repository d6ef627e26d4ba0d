package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// eagerHistogram is the histogram as it reads with every declared bucket
// allocated up front: the reference the grown-on-demand Histogram must
// agree with on every reader.
type eagerHistogram struct {
	width   int
	buckets []uint64
	total   uint64
}

func newEager(n, width int) *eagerHistogram {
	return &eagerHistogram{width: width, buckets: make([]uint64, n+1)}
}

func (h *eagerHistogram) add(v int) {
	idx := 0
	if v > 0 {
		idx = v / h.width
	}
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx]++
	h.total++
}

func (h *eagerHistogram) merge(other *eagerHistogram) {
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.total += other.total
}

func (h *eagerHistogram) quantile(q float64) float64 {
	if h.total == 0 || q < 0 || q > 1 {
		return 0
	}
	target := q * float64(h.total)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			if i == len(h.buckets)-1 {
				return float64(i * h.width)
			}
			return float64(i*h.width) + (target-cum)/float64(c)*float64(h.width)
		}
		cum = next
	}
	return float64((len(h.buckets) - 1) * h.width)
}

func (h *eagerHistogram) String() string {
	if h.total == 0 {
		return "(empty histogram)"
	}
	var peak uint64
	for _, c := range h.buckets {
		peak = max(peak, c)
	}
	var b strings.Builder
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		label := fmt.Sprintf("[%d,%d)", i*h.width, (i+1)*h.width)
		if i == len(h.buckets)-1 {
			label = fmt.Sprintf(">=%d", i*h.width)
		}
		fmt.Fprintf(&b, "%-12s %8d %s\n", label, c, strings.Repeat("#", int(40*c/peak)))
	}
	return b.String()
}

// sameAsEager fails t unless h reads exactly as ref through every reader.
func sameAsEager(t *testing.T, what string, h *Histogram, ref *eagerHistogram) {
	t.Helper()
	if !reflect.DeepEqual(h.Buckets(), ref.buckets) {
		t.Fatalf("%s: Buckets = %v, want %v", what, h.Buckets(), ref.buckets)
	}
	if h.Total() != ref.total {
		t.Fatalf("%s: Total = %d, want %d", what, h.Total(), ref.total)
	}
	for _, q := range []float64{-0.5, 0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1, 1.5} {
		if got, want := h.Quantile(q), ref.quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", what, q, got, want)
		}
	}
	if got, want := h.String(), ref.String(); got != want {
		t.Fatalf("%s: String =\n%s\nwant\n%s", what, got, want)
	}
}

// TestHistogramMatchesEagerReference: a histogram that stores buckets only
// up to the highest one observed reads exactly as one that allocated every
// declared bucket, over random layouts and samples — negatives, values in
// the overflow bucket, and merges of operands grown to different lengths
// (either side longer, into an empty one, into itself).
func TestHistogramMatchesEagerReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n, width := 1+rng.Intn(60), 1+rng.Intn(20)
		span := (n + 1) * width
		// fill adds count samples, mostly below reach (so operands
		// stop growing at different buckets), a few negative and a few
		// past the overflow bound.
		fill := func(h *Histogram, ref *eagerHistogram, count, reach int) {
			for i := 0; i < count; i++ {
				v := rng.Intn(reach + 1)
				switch rng.Intn(20) {
				case 0:
					v = -1 - rng.Intn(span)
				case 1:
					v = span + rng.Intn(3*span)
				}
				h.Add(v)
				ref.add(v)
			}
		}
		a, refA := NewHistogram(n, width), newEager(n, width)
		b, refB := NewHistogram(n, width), newEager(n, width)
		fill(a, refA, rng.Intn(50), rng.Intn(span))
		fill(b, refB, rng.Intn(50), rng.Intn(span))
		what := fmt.Sprintf("trial %d (n=%d width=%d)", trial, n, width)
		sameAsEager(t, what+" a", a, refA)
		sameAsEager(t, what+" b", b, refB)

		a.Merge(b)
		refA.merge(refB)
		sameAsEager(t, what+" a+b", a, refA)
		b.Merge(a)
		refB.merge(refA)
		sameAsEager(t, what+" b+(a+b)", b, refB)

		empty, refEmpty := NewHistogram(n, width), newEager(n, width)
		empty.Merge(a)
		refEmpty.merge(refA)
		sameAsEager(t, what+" empty+a", empty, refEmpty)

		a.Merge(a)
		refA.merge(refA)
		sameAsEager(t, what+" a+a", a, refA)

		fill(a, refA, rng.Intn(20), span)
		sameAsEager(t, what+" a after merges", a, refA)
	}
}

// TestHistogramBucketsSpanTheLayout: Buckets reads every declared bucket,
// 0 for one never reached, though only the reached ones are stored.
func TestHistogramBucketsSpanTheLayout(t *testing.T) {
	h := NewHistogram(4, 10)
	h.Add(5)
	if got := h.Buckets(); !reflect.DeepEqual(got, []uint64{1, 0, 0, 0, 0}) || len(h.buckets) != 1 {
		t.Errorf("Buckets = %v over %d stored buckets, want [1 0 0 0 0] over 1", got, len(h.buckets))
	}
}

// TestHistogramStoresOnlyReachedBuckets: the storage a histogram holds is
// bounded by the highest bucket it has seen, not by its declared size.
func TestHistogramStoresOnlyReachedBuckets(t *testing.T) {
	h := NewHistogram(4000, 500)
	for v := 0; v < 100_000; v += 7 {
		h.Add(v) // buckets 0..199
	}
	if n, c := len(h.buckets), cap(h.buckets); n != 200 || c > 2*n {
		t.Errorf("len/cap(buckets) = %d/%d after reaching bucket 199 of 4001, want 200 and at most 400", n, c)
	}
	h.Add(1 << 30)
	if n := len(h.buckets); n != 4001 {
		t.Errorf("len(buckets) = %d after an overflow sample, want the declared 4001", n)
	}
}
