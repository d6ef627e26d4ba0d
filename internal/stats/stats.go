// Package stats provides the small statistical toolkit the evaluation
// harness is built on: a running mean and maximum, fixed-window moving
// averages, histograms and load-spread measures.
//
// Everything here is deterministic and allocation-conscious; the experiment
// runners call into this package once per simulated request.
package stats

import "errors"

// ErrEmpty is returned by reductions over empty data sets.
var ErrEmpty = errors.New("stats: empty data set")

// Online accumulates the mean and maximum in a single pass. The zero value
// is ready to use.
type Online struct {
	n    uint64
	mean float64
	max  float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 || x > o.max {
		o.max = x
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
}

// Mean returns the running mean (0 for an empty accumulator).
func (o *Online) Mean() float64 { return o.mean }

// Max returns the largest observation (0 for an empty accumulator).
func (o *Online) Max() float64 { return o.max }
