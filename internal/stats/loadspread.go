package stats

import "sort"

// Load-imbalance statistics for per-proxy request shares. Backwarding
// concentrates each hot object on a single proxy, so a Zipf workload shows
// up directly in these numbers; they are the headline metric the
// hot-object replication controller must improve.

// MaxMeanRatio returns max(xs)/mean(xs) — how much hotter the hottest
// proxy runs than the average proxy. 1.0 is a perfectly even spread; the
// number of proxies is the worst case (all load on one proxy). Returns
// ErrEmpty for an empty set and 0 when the mean is zero.
func MaxMeanRatio(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum, max float64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 0, nil
	}
	return max * float64(len(xs)) / sum, nil
}

// Gini returns the Gini coefficient of xs (0 = perfectly even, → 1 =
// maximally concentrated), the standard scale-free inequality measure.
// Values are assumed non-negative. It does not mutate xs. Returns ErrEmpty
// for an empty set and 0 when all values are zero.
func Gini(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var sum, weighted float64
	for i, x := range sorted {
		sum += x
		weighted += float64(i+1) * x
	}
	if sum == 0 {
		return 0, nil
	}
	return (2*weighted - (n+1)*sum) / (n * sum), nil
}
