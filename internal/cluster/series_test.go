package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/workload"
)

// shiftOpenConfig is the bench's sim_shift_open run: 64 Poisson open-loop
// clients injecting every 2000 ticks into 5 reference-size ADC proxies,
// with the 4000 × 500-tick response histogram.
func shiftOpenConfig() Config {
	return Config{
		Algorithm:  ADC,
		NumProxies: 5,
		Tables: core.Config{
			SingleSize: 20_000, MultipleSize: 20_000, CachingSize: 10_000,
		},
		Seed:                1,
		EntryPolicy:         sim.EntryRandom,
		Clients:             64,
		Window:              5000,
		Runtime:             RuntimeVirtualTime,
		OpenLoopInterval:    2000,
		Poisson:             true,
		ResponseBuckets:     4000,
		ResponseBucketTicks: 500,
	}
}

// shiftOpenStream is sim_shift_open's request stream at n requests.
func shiftOpenStream(n int) (workload.Source, error) {
	return workload.NewShift(workload.ShiftConfig{
		TotalRequests: n, Period: max(n/5, 1), Population: 10_000,
		Alpha: 0.8, OneTimerProb: 0.3, Seed: 1,
	})
}

// TestMultiClientSeries: with 64 clients sampling at SampleEvery, Result.
// Series is client 0's series, pinned to the digest recorded when every
// client still built moving-average windows and sampled; the other clients
// sample nothing.
func TestMultiClientSeries(t *testing.T) { multiClientSeries(t) }

// TestMultiClientSeriesInWindows is TestMultiClientSeries with every
// lookahead window forced onto two goroutines, held to the same digest.
func TestMultiClientSeriesInWindows(t *testing.T) {
	defer sim.ForceWindows()()
	multiClientSeries(t)
}

func multiClientSeries(t *testing.T) {
	const (
		requests = 64 * 2000
		want     = 0x9a72d61de5dc34ac
	)
	cfg := shiftOpenConfig()
	cfg.Window = 500
	cfg.SampleEvery = 100
	src, err := shiftOpenStream(requests)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Requests != requests {
		t.Fatalf("%d of %d requests completed", res.Summary.Requests, requests)
	}
	if len(res.Series) != 2000/100 {
		t.Errorf("series points = %d, want %d (client 0's 2000 requests at 1 in 100)", len(res.Series), 2000/100)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res.Series)
	if got := h.Sum64(); got != want {
		t.Errorf("series digest %#x, want %#x; series %+v", got, uint64(want), res.Series)
	}
	for i, cl := range c.Clients()[1:] {
		if n := len(cl.Collector().Series()); n != 0 {
			t.Errorf("client %d sampled %d points; only client 0 samples", i+1, n)
		}
	}
}
