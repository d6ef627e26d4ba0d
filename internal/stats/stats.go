// Package stats provides the small statistical toolkit the evaluation
// harness is built on: online moment accumulation (Welford), order
// statistics, fixed-window moving averages, and histograms.
//
// Everything here is deterministic and allocation-conscious; the experiment
// runners call into this package once per simulated request.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions over empty data sets.
var ErrEmpty = errors.New("stats: empty data set")

// Online accumulates count, mean and variance in a single pass using
// Welford's algorithm. The zero value is ready to use.
type Online struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() uint64 { return o.n }

// Mean returns the running mean (0 for an empty accumulator).
func (o *Online) Mean() float64 { return o.mean }

// Min returns the smallest observation (0 for an empty accumulator).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation (0 for an empty accumulator).
func (o *Online) Max() float64 { return o.max }

// Variance returns the unbiased sample variance.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Merge folds another accumulator into o (parallel Welford merge), allowing
// per-proxy accumulators to be combined into cluster totals.
func (o *Online) Merge(other *Online) {
	if other.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *other
		return
	}
	n := o.n + other.n
	delta := other.mean - o.mean
	mean := o.mean + delta*float64(other.n)/float64(n)
	m2 := o.m2 + other.m2 + delta*delta*float64(o.n)*float64(other.n)/float64(n)
	if other.min < o.min {
		o.min = other.min
	}
	if other.max > o.max {
		o.max = other.max
	}
	o.n, o.mean, o.m2 = n, mean, m2
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It does not mutate xs.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
