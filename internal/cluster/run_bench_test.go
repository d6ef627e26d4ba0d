package cluster

import (
	"testing"

	"github.com/adc-sim/adc/internal/trace"
)

// BenchmarkRunShiftOpen is one sim_shift_open run (shiftOpenConfig) at a
// fifth of the benchmark's 500 000 requests, replayed from memory as the
// benchmark does: its allocations are one run's per-client state, event
// queue and pending-request tables on top of the pooled mapping tables.
// `make bench-profile` writes its memory profile to cluster-mem.out.
func BenchmarkRunShiftOpen(b *testing.B) {
	const requests = 100_000
	src, err := shiftOpenStream(requests)
	if err != nil {
		b.Fatal(err)
	}
	objs := trace.Drain(src)
	cfg := shiftOpenConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, trace.NewSliceSource(objs))
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.Requests != requests {
			b.Fatalf("%d of %d requests completed", res.Summary.Requests, requests)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/req")
}
