package cluster

import (
	"runtime"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/workload"
)

// TestMarginalAllocsPerRequest bounds the heap allocations a reference-size
// ADC run (5 proxies, 20k/20k/10k tables, §V.2, on the virtual-time engine)
// makes per request, in the closed loop and with 64 Poisson clients. It
// takes the difference between a 200 000- and a 400 000-request run, so
// construction cancels and what is left is the per-request path: engine,
// clients, proxies and tables. Run hands each run's tables to the next, so
// a warm-up run of the long shape goes first: both measured runs then build
// on released storage, as every run after the first in a sweep does, and
// neither pays the first run's slab allocations alone. It counts
// process-wide mallocs, so it must not run beside parallel tests.
func TestMarginalAllocsPerRequest(t *testing.T) {
	const (
		short, long = 200_000, 400_000
		maxPerReq   = 0.01
	)
	shapes := []struct {
		name     string
		clients  int
		interval int64
		stream   func(n int) (workload.Source, error)
	}{
		{"closed", 1, 0, func(n int) (workload.Source, error) {
			return workload.New(workload.Config{
				TotalRequests: n, PopulationSize: 10_000, Alpha: 0.8,
				OneTimerProb: 0.3, FillFraction: 0.25, Seed: 1,
			})
		}},
		{"poisson64", 64, 2000, func(n int) (workload.Source, error) {
			return workload.NewShift(workload.ShiftConfig{
				TotalRequests: n, Period: n / 5, Population: 10_000,
				Alpha: 0.8, OneTimerProb: 0.3, Seed: 1,
			})
		}},
	}
	for _, shape := range shapes {
		cfg := Config{
			Algorithm:  ADC,
			NumProxies: 5,
			Tables: core.Config{
				SingleSize: 20_000, MultipleSize: 20_000, CachingSize: 10_000,
			},
			Seed:                1,
			EntryPolicy:         sim.EntryRandom,
			Clients:             shape.clients,
			Window:              5000,
			Runtime:             RuntimeVirtualTime,
			OpenLoopInterval:    shape.interval,
			Poisson:             shape.interval > 0,
			ResponseBuckets:     4000,
			ResponseBucketTicks: 500,
		}
		mallocs := func(n int) uint64 {
			src, err := shape.stream(n)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(cfg, src)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Requests != uint64(n) {
				t.Fatalf("%s: %d of %d requests completed", shape.name, res.Summary.Requests, n)
			}
			return after.Mallocs - before.Mallocs
		}
		mallocs(long) // warm-up
		perReq := float64(int64(mallocs(long))-int64(mallocs(short))) / (long - short)
		t.Logf("%s: %.4f allocations per request", shape.name, perReq)
		if perReq > maxPerReq {
			t.Errorf("%s: %.4f marginal allocations per request, want ≤ %g", shape.name, perReq, maxPerReq)
		}
	}
}
