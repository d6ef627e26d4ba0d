// Package stats provides the small statistical toolkit the evaluation
// harness is built on: a running mean with extremes, fixed-window moving
// averages, histograms and load-spread measures.
//
// Everything here is deterministic and allocation-conscious; the experiment
// runners call into this package once per simulated request.
package stats

import "errors"

// ErrEmpty is returned by reductions over empty data sets.
var ErrEmpty = errors.New("stats: empty data set")

// Online accumulates count, mean, minimum and maximum in a single pass.
// The zero value is ready to use.
type Online struct {
	n    uint64
	mean float64
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
}

// N returns the number of observations.
func (o *Online) N() uint64 { return o.n }

// Mean returns the running mean (0 for an empty accumulator).
func (o *Online) Mean() float64 { return o.mean }

// Min returns the smallest observation (0 for an empty accumulator).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation (0 for an empty accumulator).
func (o *Online) Max() float64 { return o.max }

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
