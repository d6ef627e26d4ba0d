// Package workload generates the synthetic request stream the experiments
// run against. The paper uses Web Polygraph's PolyMix-4 to create "a set of
// almost 4 million requests ... divided into three phases" (§V.1.6):
//
//	Phase 1 — fill:            ≈1.0 M requests, "almost no repetitions";
//	Phase 2 — request phase I: ≈1.5 M requests with web-like repetitions;
//	Phase 3 — request phase II: "repeats itself", i.e. replays phase 2.
//
// Polygraph itself is a live benchmarking appliance, not a library, so this
// package is the documented substitution (DESIGN.md §3): a deterministic,
// seeded generator with the same phase structure and a Zipf-like popularity
// skew, which is the empirically observed shape of web request streams
// (Breslau et al., the paper's ref [2]).
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Zipf samples ranks 1..N with probability proportional to 1/rank^alpha.
//
// math/rand's Zipf only supports exponents s > 1, but measured web streams
// have alpha ≈ 0.6–0.9 (ref [2]), so we sample from an explicit cumulative
// distribution by inversion: a draw u in [0, 1) maps to the first rank
// whose CDF value is ≥ u. A guide table over the CDF (Chen and Asau's
// method, 1974) finds that rank in O(1) expected probes: O(N) memory once,
// deterministic for a given rand.Rand, and for every u the rank the binary
// search sort.SearchFloat64s(cdf, u) returns.
type Zipf struct {
	cdf []float64
	// guide[b] is the first rank whose CDF value is ≥ b/K, for K =
	// len(guide), the smallest power of two ≥ 2N. A draw u lies in bucket
	// int(u·K), whose answer is at or after guide[int(u·K)] and, on
	// average, less than half a rank past it.
	guide []int32
}

// NewZipf builds a sampler over ranks 1..n with a finite exponent alpha > 0.
func NewZipf(n int, alpha float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: zipf population must be positive, got %d", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("workload: zipf population must be at most %d, got %d", math.MaxInt32, n)
	}
	if err := validAlpha(alpha); err != nil {
		return nil, err
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	// Normalise so the last bucket is exactly 1.
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1
	return &Zipf{cdf: cdf, guide: guideTable(cdf)}, nil
}

// validAlpha accepts a finite Zipf exponent above 0, and not NaN: over a
// NaN CDF every draw would land on one rank.
func validAlpha(alpha float64) error {
	if !(alpha > 0) || math.IsInf(alpha, 1) {
		return fmt.Errorf("workload: zipf exponent Alpha must be finite and positive, got %v", alpha)
	}
	return nil
}

// guideTable indexes a non-decreasing CDF that ends at 1. K is a power of
// two, so b/K and a draw's u·K are exact in float64, and bucket b holds
// exactly the u in [b/K, (b+1)/K): every such u has its answer at or
// after guide[b], because no rank before guide[b] reaches b/K ≤ u.
func guideTable(cdf []float64) []int32 {
	k := 1
	for k < 2*len(cdf) {
		k <<= 1
	}
	guide := make([]int32, k)
	i := 0
	for b := range guide {
		edge := float64(b) / float64(k)
		for cdf[i] < edge {
			i++
		}
		guide[b] = int32(i)
	}
	return guide
}

// Rank draws a rank in [0, N) — rank 0 is the most popular.
func (z *Zipf) Rank(rng *rand.Rand) int {
	return z.rank(rng.Float64())
}

// rank inverts the CDF at u in [0, 1): the first rank whose CDF value is
// ≥ u. The scan stops at the last rank at the latest, whose value is 1.
func (z *Zipf) rank(u float64) int {
	i := int(z.guide[int(u*float64(len(z.guide)))])
	for z.cdf[i] < u {
		i++
	}
	return i
}
