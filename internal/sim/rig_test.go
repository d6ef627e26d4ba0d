package sim_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/proxy"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// rigResult captures everything observable from a run: per-client metric
// summaries and series, per-proxy protocol stats, and the engine's delivery
// count.
type rigResult struct {
	summaries []metrics.Summary
	series    [][]metrics.Point
	proxies   []metrics.ProxyStats
	delivered uint64
}

// rig parameterizes one engine workload whose observable result is pinned.
type rig struct {
	latency  sim.LatencyModel
	proxies  int
	clients  int
	requests int
	// openLoop switches from closed-loop clients to open-loop injection
	// (many requests in flight); poisson randomizes the arrival gaps.
	openLoop bool
	poisson  bool
	// faults, when set, is installed on the engine before the run.
	faults *sim.FaultPlan
	// wrap, when set, decorates every proxy and the origin before it is
	// registered.
	wrap func(sim.Node) sim.Node
}

// run wires the rig onto eng, runs it, and snapshots the observable state.
func (r rig) run(t *testing.T, eng *sim.VEngine) rigResult {
	t.Helper()
	proxies := make([]*proxy.ADC, r.proxies)
	proxyIDs := make([]ids.NodeID, r.proxies)
	for i := range proxyIDs {
		proxyIDs[i] = ids.NodeID(i)
	}
	for i := range proxies {
		p := newADCProxy(t, protocol.Config{
			ID:     ids.NodeID(i),
			Peers:  proxyIDs,
			Tables: core.Config{SingleSize: 400, MultipleSize: 400, CachingSize: 200},
			Seed:   1,
		})
		proxies[i] = p
		if err := eng.Register(r.wrapped(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Register(r.wrapped(sim.NewOrigin())); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetFaultPlan(r.faults); err != nil {
		t.Fatal(err)
	}
	collectors := make([]*metrics.Collector, r.clients)
	for i := 0; i < r.clients; i++ {
		collectors[i] = metrics.NewCollector(metrics.WithSampleEvery(50))
		objs := benchObjects(r.requests, 300)
		var (
			cl  sim.Node
			err error
		)
		if r.openLoop {
			cl, err = sim.NewClient(sim.ClientConfig{
				Index:         i,
				Source:        trace.NewSliceSource(objs),
				Proxies:       proxyIDs,
				Policy:        sim.EntryRandom,
				Seed:          int64(i + 1),
				Collector:     collectors[i],
				IntervalTicks: 700,
				Poisson:       r.poisson,
			})
		} else {
			cl, err = sim.NewClient(sim.ClientConfig{
				Index:     i,
				Source:    trace.NewSliceSource(objs),
				Proxies:   proxyIDs,
				Policy:    sim.EntryRandom,
				Seed:      int64(i + 1),
				Collector: collectors[i],
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Register(cl); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	res := rigResult{delivered: eng.Delivered()}
	for _, c := range collectors {
		res.summaries = append(res.summaries, c.Summary())
		res.series = append(res.series, append([]metrics.Point(nil), c.Series()...))
	}
	for _, p := range proxies {
		res.proxies = append(res.proxies, p.Stats())
	}
	return res
}

func (r rig) wrapped(n sim.Node) sim.Node {
	if r.wrap == nil {
		return n
	}
	return r.wrap(n)
}

// digest folds everything observable into one value, so a run can be pinned
// to a constant recorded from another build. The proxy counters print
// without their field names, so renaming a counter moves no constant.
func (r rigResult) digest() uint64 {
	h := fnv.New64a()
	for i := range r.summaries {
		r.summaries[i].Elapsed = 0 // wall clock
	}
	fmt.Fprintf(h, "%+v|%+v|%v|%d", r.summaries, r.series, r.proxies, r.delivered)
	return h.Sum64()
}

// pin runs the rig and requires its delivery count and digest to equal
// recorded ones.
func (r rig) pin(t *testing.T, wantDelivered, wantDigest uint64) {
	t.Helper()
	got := r.run(t, sim.NewVEngine(r.latency))
	if got.delivered != wantDelivered || got.digest() != wantDigest {
		t.Errorf("drifted from the recorded VEngine run: delivered %d digest %#x, want %d %#x",
			got.delivered, got.digest(), wantDelivered, wantDigest)
	}
}

// TestVEngineDigests pins the engine's observable output on four workloads
// to what the sequential VEngine produced at cbc3d04, the last commit that
// had one. closed-loop is the paper's one-request-per-client shape. The
// open-loop runs drive wide same-tick runs: clients with identical fixed
// intervals inject at the same virtual instants and only sequence numbers
// order them (poisson staggers the arrivals). degenerate-latency collapses
// the latency model to a single tick so nearly every event in the run
// shares a timestamp — the regime where a sequence-numbering bug would
// surface immediately.
func TestVEngineDigests(t *testing.T) {
	openLoop := rig{latency: sim.DefaultLatencyModel(), proxies: 5, clients: 8, requests: 200, openLoop: true}
	poisson := openLoop
	poisson.poisson = true
	for _, tc := range []struct {
		name              string
		rig               rig
		delivered, digest uint64
	}{
		{"closed-loop", rig{latency: sim.DefaultLatencyModel(), proxies: 5, clients: 6, requests: 400}, 14250, 0x9a2f1a52d9ea1889},
		{"open-loop/fixed", openLoop, 15844, 0x10a34bb2b04755a},
		{"open-loop/poisson", poisson, 15990, 0x9b757138cc88e296},
		{"degenerate-latency", rig{
			latency:  sim.LatencyModel{ClientProxy: 1, ProxyProxy: 1, ProxyOrigin: 1, Service: 0},
			proxies:  5,
			clients:  8,
			requests: 300,
			openLoop: true,
		}, 18176, 0x8054cf7196ed8df},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.rig.pin(t, tc.delivered, tc.digest)
		})
	}
}

// heapWatch is a node decorator that samples the engine's heap before every
// delivery to the node it wraps.
type heapWatch struct {
	sim.Node
	eng                     *sim.VEngine
	maxEvents, maxTransfers *int
}

func (w heapWatch) Handle(ctx sim.Context, m msg.Message) {
	events, transfers := w.eng.HeapLoad()
	*w.maxEvents = max(*w.maxEvents, events)
	*w.maxTransfers = max(*w.maxTransfers, transfers)
	w.Node.Handle(ctx, m)
}

// TestLanesCarryEveryTransfer is the event queue's claim seen from the
// engine. On a lossless run under the default latency model with thousands
// of requests in flight, every transfer rides a FIFO lane: sampled before
// each proxy and origin delivery, the heap never holds a transfer and never
// more events than there are armed client timers. With jitter the lanes'
// order guard must refuse some transfers — they fall through to the heap —
// and nothing may reorder: the run still matches the digest recorded from
// the heap-only engine at b5667d5.
func TestLanesCarryEveryTransfer(t *testing.T) {
	const clients = 64
	r := rig{
		latency:  sim.DefaultLatencyModel(),
		proxies:  5,
		clients:  clients,
		requests: 60,
		openLoop: true,
		poisson:  true,
	}
	watch := func(eng *sim.VEngine) (maxEvents, maxTransfers *int) {
		maxEvents, maxTransfers = new(int), new(int)
		r.wrap = func(n sim.Node) sim.Node {
			return heapWatch{Node: n, eng: eng, maxEvents: maxEvents, maxTransfers: maxTransfers}
		}
		return maxEvents, maxTransfers
	}

	eng := sim.NewVEngine(r.latency)
	maxEvents, maxTransfers := watch(eng)
	r.run(t, eng)
	if *maxTransfers != 0 || *maxEvents > clients || *maxEvents == 0 {
		t.Errorf("lossless run: heap held up to %d events, %d of them transfers; want only the ≤ %d client timers",
			*maxEvents, *maxTransfers, clients)
	}

	r.faults = &sim.FaultPlan{Seed: 9, Jitter: 20_000}
	eng = sim.NewVEngine(r.latency)
	_, maxTransfers = watch(eng)
	r.run(t, eng)
	if *maxTransfers == 0 {
		t.Error("jittered run: no transfer ever reached the heap, so the lanes' order guard was not exercised")
	}
	r.wrap = nil
	r.pin(t, 38538, 0xe426437a6bf478f5)
}

// TestRunFailsOnUnregisteredNode checks that a message for a node nobody
// registered fails the run.
func TestRunFailsOnUnregisteredNode(t *testing.T) {
	eng := sim.NewVEngine(sim.DefaultLatencyModel())
	buildADCArray(t, eng, 2)
	// A client that addresses a proxy outside the rig.
	bogus, err := sim.NewClient(sim.ClientConfig{
		Source:  trace.NewSliceSource(benchObjects(1, 10)),
		Proxies: []ids.NodeID{7},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(bogus); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err == nil {
		t.Fatal("expected unregistered-node error, got nil")
	}
}

// TestRegisterRefusesUsedID holds Register to its contract: a second node
// under a used ID is refused.
func TestRegisterRefusesUsedID(t *testing.T) {
	eng := sim.NewVEngine(sim.DefaultLatencyModel())
	if err := eng.Register(sim.NewOrigin()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(sim.NewOrigin()); err == nil {
		t.Fatal("expected duplicate-node error, got nil")
	}
}

// newADCProxy builds an ADC proxy node: cfg's protocol agent behind the
// simulator's proxy node.
func newADCProxy(tb testing.TB, cfg protocol.Config) *proxy.ADC {
	tb.Helper()
	a, err := protocol.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := proxy.New(proxy.Config{ID: cfg.ID, Policy: a})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}
