package sim_test

import (
	"fmt"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/proxy"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// benchObjects builds a deterministic request stream over a hot population,
// shared by every engine benchmark so ns/op values are comparable across
// commits.
func benchObjects(n, population int) []ids.ObjectID {
	objs := make([]ids.ObjectID, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range objs {
		state = state*6364136223846793005 + 1442695040888963407
		objs[i] = ids.ObjectID(state % uint64(population))
	}
	return objs
}

// buildADCArray wires the standard ADC proxy array plus origin onto an engine.
func buildADCArray(b testing.TB, eng *sim.VEngine, nProxies int) []ids.NodeID {
	b.Helper()
	proxyIDs := make([]ids.NodeID, nProxies)
	for i := range proxyIDs {
		proxyIDs[i] = ids.NodeID(i)
	}
	for _, id := range proxyIDs {
		p, err := proxy.New(proxy.Config{
			ID:    id,
			Peers: proxyIDs,
			Tables: core.Config{
				SingleSize:   2000,
				MultipleSize: 2000,
				CachingSize:  1000,
			},
			Seed: 1,
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
	return proxyIDs
}

// BenchmarkVEngineEcho isolates the engine itself: a single echo node and
// one closed-loop client, so nearly all time is heap push/pop, dispatch
// and message management rather than ADC table work.
func BenchmarkVEngineEcho(b *testing.B) {
	const requests = 50_000
	objs := benchObjects(requests, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewVEngine(sim.DefaultLatencyModel())
		if err := eng.Register(sim.NewOrigin()); err != nil {
			b.Fatal(err)
		}
		cl, err := sim.NewClient(sim.ClientConfig{
			Source:  trace.NewSliceSource(objs),
			Proxies: []ids.NodeID{ids.Origin},
			Seed:    1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Register(cl); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVEngineOpenLoop stresses the discrete-event queue with
// concurrently outstanding requests (timer events interleaved with
// transfers). One client at a 1000-tick interval keeps ≈ 90 requests in
// flight: a shallow queue.
func BenchmarkVEngineOpenLoop(b *testing.B) { benchOpenLoop(b, 1, 1, 20_000, 1000) }

// BenchmarkVEngineOpenLoopDeep is the deep-queue case, shaped like the
// sim_shift_open workload of BENCHMARK.json: 64 Poisson clients at a
// 2000-tick interval each against ≈ 90,000-tick responses keep ≈ 2,800
// requests in flight. shards=1 is the floor sim.self_ns_per_event is read
// against. shards=2 is the same run split over two shards: Poisson arrivals
// almost never share a tick, so nearly every cohort is one event and pays
// the fan-out and merge for nothing — sharding is for same-tick cohorts.
func BenchmarkVEngineOpenLoopDeep(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchOpenLoop(b, shards, 64, 100_000, 2000)
		})
	}
}

// benchOpenLoop runs the 5-proxy ADC array under the given number of
// Poisson open-loop clients, the request stream dealt round-robin.
func benchOpenLoop(b *testing.B, shards, clients, requests int, interval int64) {
	const nProxies = 5
	shardMap, err := ids.NewShardMap(shards, nProxies)
	if err != nil {
		b.Fatal(err)
	}
	objs := benchObjects(requests, 1000)
	parts := make([][]ids.ObjectID, clients)
	for i, obj := range objs {
		parts[i%clients] = append(parts[i%clients], obj)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var delivered uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewShardedVEngine(sim.DefaultLatencyModel(), shardMap)
		proxyIDs := buildADCArray(b, eng, nProxies)
		for c, part := range parts {
			cl, err := sim.NewOpenLoopClient(sim.OpenLoopConfig{
				Index:         c,
				Source:        trace.NewSliceSource(part),
				Proxies:       proxyIDs,
				Seed:          int64(1 + c),
				IntervalTicks: interval,
				Poisson:       true,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Register(cl); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		delivered = eng.Delivered()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(delivered), "ns/event")
}
