package sim_test

import (
	"fmt"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/proxy"
	"github.com/adc-sim/adc/internal/sim"
)

// The large-topology scaling rig: 10k ADC proxies and one million open-loop
// clients in a single simulation — the regime ROADMAP item 1 targets, two
// orders of magnitude past the paper's 5-proxy testbed. The workload is
// deliberately shard-friendly and allocation-light:
//
//   - every client enters through its home proxy (client i → proxy i mod P,
//     the colocation ids.ShardMap preserves), so the client↔proxy half of
//     the traffic never crosses a shard boundary;
//   - each home proxy's clients draw from a private object pool, so after
//     the cold pass most requests are local hits and the single origin node
//     (pinned to shard 0) stays off the critical path;
//   - fixed arrival intervals and fixed entry mean no client ever touches
//     its rng (left nil by the lazy-allocation path), and per-shard shared
//     collectors replace a million private 5000-slot windows.
//
// MaxHops bounds the cold-table random walk: with 10k peers an unbounded
// wander revisits a proxy (the loop-detection exit) only after ~√P ≈ 100
// hops, which would measure the wander, not the engine.
const (
	scaleProxies        = 10_000
	scaleClients        = 1_000_000
	scaleReqsPerClient  = 3
	scalePoolPerProxy   = 25
	scaleObjectSpacing  = 1_000
	scaleInterval       = 100_000 // ticks between a client's injections
	scaleMaxHops        = 4
	scaleCollectorRings = 256
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
// collFor maps a client index to its (possibly shared) metrics collector.
func buildScalingRig(b *testing.B, eng *sim.VEngine, collFor func(i int) *metrics.Collector) {
	b.Helper()
	proxyIDs := make([]ids.NodeID, scaleProxies)
	for i := range proxyIDs {
		proxyIDs[i] = ids.NodeID(i)
	}
	for _, id := range proxyIDs {
		p, err := proxy.New(proxy.Config{
			ID:     id,
			Peers:  proxyIDs,
			Tables: core.Config{SingleSize: 200, MultipleSize: 200, CachingSize: 100},
			Seed:   7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Register(p); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Register(sim.NewOrigin()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < scaleClients; i++ {
		home := i % scaleProxies
		cl, err := sim.NewOpenLoopClient(sim.OpenLoopConfig{
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
			Collector:     collFor(i),
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

func newScaleCollector() *metrics.Collector {
	return metrics.NewCollector(
		metrics.WithWindow(scaleCollectorRings),
		metrics.WithSampleEvery(0),
	)
}

// BenchmarkShardedScaling is the engine's scaling benchmark: the 10k-proxy
// / 1M-client workload at 1, 2, 4 and 8 shards (≈ 5 GB RSS and minutes per
// variant; run one at a time with -benchtime 1x). EXPERIMENTS.md "Parallel
// engine scaling" records events/s per shard count with the machine shape
// of each row; a ratio between shard counts only means something on a
// machine with at least that many cores.
//
// Every variant also cross-checks its delivery count against the first
// variant run: a shard-count-dependent event count would mean the engines
// diverged, and a throughput number for a wrong simulation is worthless.
func BenchmarkShardedScaling(b *testing.B) {
	var wantDelivered uint64

	// One collector per shard, shared by that shard's clients: handlers of
	// one shard never run concurrently, so the sharing is race-free, and it
	// keeps per-client state small enough for a million clients.
	shardColl := func(part ids.ShardMap) func(int) *metrics.Collector {
		cs := make([]*metrics.Collector, part.Shards())
		for i := range cs {
			cs[i] = newScaleCollector()
		}
		return func(i int) *metrics.Collector { return cs[part.ShardOf(ids.Client(i))] }
	}

	runOne := func(b *testing.B, part ids.ShardMap) {
		b.ReportAllocs()
		var delivered uint64
		var runNanos int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := sim.NewShardedVEngine(sim.DefaultLatencyModel(), part)
			buildScalingRig(b, eng, shardColl(part))
			b.StartTimer()
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
			delivered = eng.Delivered()
		}
		runNanos = b.Elapsed().Nanoseconds()
		if wantDelivered == 0 {
			wantDelivered = delivered
		} else if delivered != wantDelivered {
			b.Fatalf("delivered %d events, other variants delivered %d — engines diverged", delivered, wantDelivered)
		}
		perRun := float64(runNanos) / float64(b.N)
		b.ReportMetric(float64(delivered)/(perRun/1e9), "events/s")
		b.ReportMetric(perRun/float64(delivered), "ns/event")
	}

	for _, shards := range []int{1, 2, 4, 8} {
		part, err := ids.NewShardMap(shards, scaleProxies)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			runOne(b, part)
		})
	}
}
