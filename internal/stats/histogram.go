package stats

import (
	"fmt"
	"strings"
)

// Histogram counts observations into fixed-width integer buckets; the last
// bucket is an overflow bucket. It summarises response times: each
// simulated client's, and adcload's request latencies.
//
// The layout (size buckets of the given width) is fixed at construction,
// but the counts are stored only up to the highest bucket observed so far:
// a histogram declared with thousands of buckets whose samples stay in the
// first few hundred pays for those few hundred. Every reader pads the
// unstored buckets with zeros.
type Histogram struct {
	width   int
	size    int // declared buckets, the overflow bucket included
	buckets []uint64
	total   uint64
}

// NewHistogram returns a histogram with n buckets of the given width, plus
// an implicit overflow bucket. Both arguments must be positive.
func NewHistogram(n, width int) *Histogram {
	if n <= 0 || width <= 0 {
		panic("stats: histogram dimensions must be positive")
	}
	return &Histogram{width: width, size: n + 1}
}

// Add counts one observation. Negative values land in bucket 0.
func (h *Histogram) Add(v int) {
	idx := 0
	if v > 0 {
		idx = v / h.width
	}
	if idx >= h.size {
		idx = h.size - 1
	}
	if idx >= len(h.buckets) {
		h.buckets = append(h.buckets, make([]uint64, idx+1-len(h.buckets))...)
	}
	h.buckets[idx]++
	h.total++
}

// Merge folds other's counts into h. Both histograms must have identical
// bucket layout; concurrent load-generator workers each fill a private
// histogram and merge at the end, so the hot path never shares a lock.
func (h *Histogram) Merge(other *Histogram) {
	if h.width != other.width || h.size != other.size {
		panic("stats: merging histograms with different layouts")
	}
	if n := len(other.buckets) - len(h.buckets); n > 0 {
		h.buckets = append(h.buckets, make([]uint64, n)...)
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.total += other.total
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Buckets returns a copy of the bucket counts (last entry is overflow).
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, h.size)
	copy(out, h.buckets)
	return out
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the bucket
// counts, interpolating linearly within the containing bucket. The
// overflow bucket reports its lower bound.
func (h *Histogram) Quantile(q float64) float64 {
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
			if i == h.size-1 {
				return float64(i * h.width) // overflow: lower bound
			}
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			return float64(i*h.width) + frac*float64(h.width)
		}
		cum = next
	}
	return float64((h.size - 1) * h.width)
}

// String renders the histogram as a compact multi-line bar chart.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "(empty histogram)"
	}
	var peak uint64
	for _, c := range h.buckets {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		var label string
		if i == h.size-1 {
			label = fmt.Sprintf(">=%d", i*h.width)
		} else {
			label = fmt.Sprintf("[%d,%d)", i*h.width, (i+1)*h.width)
		}
		bar := strings.Repeat("#", int(40*c/peak))
		fmt.Fprintf(&b, "%-12s %8d %s\n", label, c, bar)
	}
	return b.String()
}
