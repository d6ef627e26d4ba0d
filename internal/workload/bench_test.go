package workload

import (
	"math/rand"
	"testing"
)

// BenchmarkGeneratorNext bounds the per-request cost of the synthetic
// workload (it sits on the critical path of every simulated request) in
// its request phases, where a request is a one-timer coin flip and, for
// most, a Zipf draw. The fill phase, which draws no rank, is cut to one
// request so that it cannot fill b.N.
func BenchmarkGeneratorNext(b *testing.B) {
	cfg := DefaultConfig(1 << 30)
	cfg.FillFraction = 1e-9      // int(2^30 · 1e-9) = 1 fill request
	cfg.PopulationSize = 100_000 // keep the CDF build out of the picture
	g, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("stream exhausted")
		}
	}
}

// BenchmarkZipfRank isolates one Zipf draw, its rand.Float64 included:
// the guide-table lookup and its short scan over the CDF.
func BenchmarkZipfRank(b *testing.B) {
	z, err := NewZipf(100_000, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Rank(rng)
	}
}
