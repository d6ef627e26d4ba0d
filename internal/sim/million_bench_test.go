package sim_test

import (
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/sim"
)

// The million-client rig: 10k ADC proxies and one million open-loop
// clients in a single simulation — two orders of magnitude past the
// paper's 5-proxy testbed. The workload is deliberately allocation-light:
//
//   - every client enters through its home proxy (client i → proxy i mod P);
//   - each home proxy's clients draw from a private object pool, so after
//     the cold pass most requests are local hits and the single origin node
//     stays off the critical path;
//   - fixed arrival intervals and fixed entry mean no client ever touches
//     its rng (left nil by the lazy-allocation path), and a small pool of
//     shared collectors replaces a million private 5000-slot windows.
//
// MaxHops bounds the cold-table random walk: with 10k peers an unbounded
// wander revisits a proxy (the loop-detection exit) only after ~√P ≈ 100
// hops, which would measure the wander, not the engine.
const (
	scaleProxies       = 10_000
	scaleClients       = 1_000_000
	scaleReqsPerClient = 3
	scalePoolPerProxy  = 25
	scaleObjectSpacing = 1_000
	scaleInterval      = 100_000 // ticks between a client's injections
	scaleMaxHops       = 4
	scaleCollectors    = 8
)

// poolSource is a zero-allocation workload source: a private LCG drawing
// from the home proxy's object pool. A million slice-backed sources would
// cost ~100 MB; this struct costs 48 bytes per client.
type poolSource struct {
	base    uint64
	emitted int
	total   int
	state   uint64
}

func (s *poolSource) Total() int { return s.total }

func (s *poolSource) Next() (ids.ObjectID, bool) {
	if s.emitted >= s.total {
		return 0, false
	}
	s.emitted++
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return ids.ObjectID(s.base + s.state%scalePoolPerProxy), true
}

// buildScalingRig wires the 10k-proxy / 1M-client topology onto eng.
func buildScalingRig(b *testing.B, eng *sim.VEngine) {
	b.Helper()
	// A few collectors, each shared by every scaleCollectors-th client:
	// handlers run one at a time, so the sharing is race-free, and it keeps
	// per-client state small enough for a million clients.
	collectors := make([]*metrics.Collector, scaleCollectors)
	for i := range collectors {
		collectors[i] = metrics.NewCollector(metrics.WithSampleEvery(0))
	}
	proxyIDs := make([]ids.NodeID, scaleProxies)
	for i := range proxyIDs {
		proxyIDs[i] = ids.NodeID(i)
	}
	for _, id := range proxyIDs {
		p := newADCProxy(b, protocol.Config{
			ID:     id,
			Peers:  proxyIDs,
			Tables: core.Config{SingleSize: 200, MultipleSize: 200, CachingSize: 100},
			Seed:   7,
		})
		if err := eng.Register(p); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Register(sim.NewOrigin()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < scaleClients; i++ {
		home := i % scaleProxies
		cl, err := sim.NewClient(sim.ClientConfig{
			Index: i,
			Source: &poolSource{
				base:  uint64(home) * scaleObjectSpacing,
				total: scaleReqsPerClient,
				state: uint64(i)*2654435761 + 1,
			},
			// A one-element view into the shared ID slice: EntryFixed only
			// reads Proxies[0], so a million clients share one backing array.
			Proxies:       proxyIDs[home : home+1],
			Policy:        sim.EntryFixed,
			Collector:     collectors[i%scaleCollectors],
			MaxHops:       scaleMaxHops,
			IntervalTicks: scaleInterval,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Register(cl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMillionClients runs the 10k-proxy / 1M-client workload on the
// one event queue (≈ 5 GB RSS and about a minute per run on two cores; run
// it with -benchtime 1x). EXPERIMENTS.md "Parallel-engine scaling" records
// its events/s with the machine shape of each row.
func BenchmarkMillionClients(b *testing.B) {
	b.ReportAllocs()
	var delivered uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewVEngine(sim.DefaultLatencyModel())
		buildScalingRig(b, eng)
		b.StartTimer()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		delivered = eng.Delivered()
	}
	perRun := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(delivered)/(perRun/1e9), "events/s")
	b.ReportMetric(perRun/float64(delivered), "ns/event")
}
