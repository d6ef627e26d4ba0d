package sim_test

import (
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/proxy"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// benchObjects builds a deterministic request stream over a hot population,
// shared by every engine benchmark so ns/op values are comparable across
// engines and across commits (BENCH_engine.json).
func benchObjects(n, population int) []ids.ObjectID {
	objs := make([]ids.ObjectID, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range objs {
		state = state*6364136223846793005 + 1442695040888963407
		objs[i] = ids.ObjectID(state % uint64(population))
	}
	return objs
}

// adcRig wires the standard 5-proxy ADC array plus origin onto an engine.
type registrar interface {
	Register(n sim.Node) error
}

func buildADCArray(b *testing.B, eng registrar, nProxies int) []ids.NodeID {
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

// BenchmarkVEngineADC is the headline engine benchmark: a 5-proxy ADC
// array driven by one closed-loop client on the virtual-time engine. It
// exercises the full hot path — event queue, node dispatch, message and
// path churn — and is the number BENCH_engine.json tracks across commits.
func BenchmarkVEngineADC(b *testing.B) {
	const requests = 20_000
	objs := benchObjects(requests, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	var delivered uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewVEngine(sim.DefaultLatencyModel())
		proxyIDs := buildADCArray(b, eng, 5)
		cl, err := sim.NewClient(sim.ClientConfig{
			Source:  trace.NewSliceSource(objs),
			Proxies: proxyIDs,
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
		delivered = eng.Delivered()
	}
	b.ReportMetric(float64(delivered)/float64(b.Elapsed().Seconds())*float64(b.N), "events/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(delivered), "ns/event")
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
func BenchmarkVEngineOpenLoop(b *testing.B) { benchOpenLoop(b, 1, 20_000, 1000) }

// BenchmarkVEngineOpenLoopDeep is the deep-queue case, shaped like the
// sim_shift_open workload of BENCHMARK.json: 64 Poisson clients at a
// 2000-tick interval each against ≈ 90,000-tick responses keep ≈ 2,800
// requests in flight. It is the floor sim.self_ns_per_event is read against.
func BenchmarkVEngineOpenLoopDeep(b *testing.B) { benchOpenLoop(b, 64, 100_000, 2000) }

// benchOpenLoop runs the 5-proxy ADC array under the given number of
// Poisson open-loop clients, the request stream dealt round-robin.
func benchOpenLoop(b *testing.B, clients, requests int, interval int64) {
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
		eng := sim.NewVEngine(sim.DefaultLatencyModel())
		proxyIDs := buildADCArray(b, eng, 5)
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

// BenchmarkEngineADC is the sequential (FIFO) engine on the same workload,
// isolating dispatch and message costs without the event queue.
func BenchmarkEngineADC(b *testing.B) {
	const requests = 20_000
	objs := benchObjects(requests, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewEngine()
		proxyIDs := buildADCArray(b, eng, 5)
		cl, err := sim.NewClient(sim.ClientConfig{
			Source:  trace.NewSliceSource(objs),
			Proxies: proxyIDs,
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
