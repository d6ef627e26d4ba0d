package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// searchRank is the reference draw: a binary search over the CDF.
func searchRank(z *Zipf, u float64) int { return sort.SearchFloat64s(z.cdf, u) }

// TestZipfRankMatchesSearch holds the guide-table draw to the binary
// search at random points and at every point where the answer can change:
// each CDF value, the largest float below it, and every bucket edge. At
// alpha 8 the CDF's tail rounds to 1, so many ranks share one value.
func TestZipfRankMatchesSearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 500, 10_000, 1<<17 + 1} {
		for _, alpha := range []float64{0.3, 0.8, 1, 1.6, 8} {
			z, err := NewZipf(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, want := z.rank(u), searchRank(z, u); got != want {
					t.Fatalf("n=%d alpha=%v u=%v: rank %d, binary search %d", n, alpha, u, got, want)
				}
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 20_000; i++ {
				check(rng.Float64())
			}
			for _, c := range z.cdf {
				check(c)
				check(math.Nextafter(c, 0))
			}
			k := float64(len(z.guide))
			for b := range z.guide {
				check(float64(b) / k)
			}
		}
	}
}

// FuzzZipfRank holds the guide-table draw to the binary search for any
// population, exponent and point; an exponent NewZipf refuses must be
// NaN, infinite or not above 0.
func FuzzZipfRank(f *testing.F) {
	f.Add(uint16(10_000), 0.8, 0.5)
	f.Add(uint16(1), 0.8, 0.0)
	f.Add(uint16(3), 8.0, 0.9999999999999999)
	f.Add(uint16(500), 1.6, 0.25)
	f.Add(uint16(7), math.NaN(), 0.5)
	f.Fuzz(func(t *testing.T, n uint16, alpha, u float64) {
		z, err := NewZipf(int(n)+1, alpha)
		if err != nil {
			if alpha > 0 && !math.IsInf(alpha, 1) {
				t.Fatalf("NewZipf(%d, %v): %v", int(n)+1, alpha, err)
			}
			return
		}
		if !(u >= 0 && u < 1) {
			// Any other float64 picks a point in [0, 1) from its bits.
			u = float64(math.Float64bits(u)>>11) / (1 << 53)
		}
		got, want := z.rank(u), searchRank(z, u)
		if got != want {
			t.Fatalf("n=%d alpha=%v u=%v: rank %d, binary search %d", int(n)+1, alpha, u, got, want)
		}
	})
}
