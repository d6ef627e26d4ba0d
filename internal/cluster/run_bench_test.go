package cluster

import (
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
	"github.com/adc-sim/adc/internal/workload"
)

// BenchmarkRunShiftOpen is one sim_shift_open run (shiftOpenConfig) at a
// fifth of the benchmark's 500 000 requests, replayed from memory as the
// benchmark does. Each run takes the mapping tables, pending-pass cells,
// event lanes and message freelist the previous one released, so after the
// first its allocations are its 64 clients' state, about 1 MB.
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

// BenchmarkRunSequential is one zero-cost run (RuntimeSequential): 400 000
// requests of the paper workload, Zipf-0.8 over 20 000 hot objects, on five
// ADC proxies with 2000/2000/1000 tables and one closed-loop client,
// replayed from memory. Its ns/req is the engine's cost on the path where
// no latency, timer or fault ever fires.
func BenchmarkRunSequential(b *testing.B) {
	const requests = 400_000
	gen, err := workload.New(workload.Config{TotalRequests: requests, PopulationSize: 20_000, Alpha: 0.8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	objs := trace.Drain(gen)
	cfg := Config{
		Algorithm:   ADC,
		NumProxies:  5,
		Tables:      core.Config{SingleSize: 2000, MultipleSize: 2000, CachingSize: 1000},
		Seed:        1,
		EntryPolicy: sim.EntryRandom,
		Clients:     1,
		Runtime:     RuntimeSequential,
	}
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

// BenchmarkRunPaperShape is BenchmarkRunSequential at the paper's
// reference tables, 20k/20k/10k, the sim_paper shape: 400 000 requests of
// the paper workload, Zipf-0.8 over 10 000 hot objects with 30 %
// one-timers, on five ADC proxies under RuntimeVirtualTime, one
// closed-loop client, replayed from memory. Each proxy's tables then
// outgrow the L2 cache, so its ns/req is the miss-bound table path that
// BenchmarkRunSequential's in-cache tables cannot show, and the path the
// lookahead prefetch (stridedSource) and the single-table's victim
// prefetch serve.
func BenchmarkRunPaperShape(b *testing.B) {
	const requests = 400_000
	gen, err := workload.New(workload.Config{
		TotalRequests: requests, PopulationSize: 10_000, Alpha: 0.8,
		OneTimerProb: 0.3, FillFraction: 0.25, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	objs := trace.Drain(gen)
	cfg := Config{
		Algorithm:   ADC,
		NumProxies:  5,
		Tables:      core.Config{SingleSize: 20_000, MultipleSize: 20_000, CachingSize: 10_000},
		Seed:        1,
		EntryPolicy: sim.EntryRandom,
		Clients:     1,
		Runtime:     RuntimeVirtualTime,
	}
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
