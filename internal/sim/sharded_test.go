package sim_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/proxy"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// shardCounts are the partition widths every determinism test runs
// at: the degenerate single shard, even splits, an uneven split (3 shards
// over 5 proxies), and more shards than this machine may have cores.
var shardCounts = []int{1, 2, 3, 4, 8}

// rigResult captures everything observable from a run: per-client metric
// summaries and series, per-proxy protocol stats, and the engine's delivery
// count. Every shard count must agree on all of it.
type rigResult struct {
	summaries []metrics.Summary
	series    [][]metrics.Point
	proxies   []metrics.ProxyStats
	delivered uint64
}

// shardRig parameterizes one engine-comparison workload.
type shardRig struct {
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
func (r shardRig) run(t *testing.T, eng *sim.VEngine) rigResult {
	t.Helper()
	proxies := make([]*proxy.ADC, r.proxies)
	proxyIDs := make([]ids.NodeID, r.proxies)
	for i := range proxyIDs {
		proxyIDs[i] = ids.NodeID(i)
	}
	for i := range proxies {
		p, err := proxy.New(proxy.Config{
			ID:     ids.NodeID(i),
			Peers:  proxyIDs,
			Tables: core.Config{SingleSize: 400, MultipleSize: 400, CachingSize: 200},
			Seed:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
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
			cl, err = sim.NewOpenLoopClient(sim.OpenLoopConfig{
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

func (r shardRig) wrapped(n sim.Node) sim.Node {
	if r.wrap == nil {
		return n
	}
	return r.wrap(n)
}

// digest folds everything observable into one value, so a run can be pinned
// to a constant recorded from another build.
func (r rigResult) digest() uint64 {
	h := fnv.New64a()
	for i := range r.summaries {
		r.summaries[i].Elapsed = 0 // wall clock
	}
	fmt.Fprintf(h, "%+v|%+v|%+v|%d", r.summaries, r.series, r.proxies, r.delivered)
	return h.Sum64()
}

// compare runs the rig on the one-shard engine and at every other shard
// count, requiring identical observable results, and pins the one-shard run
// to the delivery count and digest the sequential VEngine produced at
// cbc3d04, the last commit that had one.
func (r shardRig) compare(t *testing.T, wantDelivered, wantDigest uint64) {
	t.Helper()
	want := r.run(t, sim.NewVEngine(r.latency))
	if want.delivered != wantDelivered || want.digest() != wantDigest {
		t.Errorf("one-shard run drifted from the recorded VEngine run: delivered %d digest %#x, want %d %#x",
			want.delivered, want.digest(), wantDelivered, wantDigest)
	}
	for _, shards := range shardCounts[1:] {
		part, err := ids.NewShardMap(shards, r.proxies)
		if err != nil {
			t.Fatal(err)
		}
		got := r.run(t, sim.NewShardedVEngine(r.latency, part))
		label := fmt.Sprintf("shards=%d", shards)
		if want.delivered != got.delivered {
			t.Errorf("%s: delivered %d, one shard delivered %d", label, got.delivered, want.delivered)
		}
		if !reflect.DeepEqual(want.summaries, got.summaries) {
			t.Errorf("%s: client summaries diverge\n got %+v\nwant %+v", label, got.summaries, want.summaries)
		}
		if !reflect.DeepEqual(want.series, got.series) {
			t.Errorf("%s: client time series diverge", label)
		}
		if !reflect.DeepEqual(want.proxies, got.proxies) {
			t.Errorf("%s: proxy stats diverge\n got %+v\nwant %+v", label, got.proxies, want.proxies)
		}
	}
}

// TestShardedMatchesOneShardClosedLoop pins the tentpole guarantee at the
// engine level: the engine's observable output is identical at every shard
// count, including shard counts that do not divide the proxy span, and
// identical to what the sequential VEngine recorded.
func TestShardedMatchesOneShardClosedLoop(t *testing.T) {
	shardRig{
		latency:  sim.DefaultLatencyModel(),
		proxies:  5,
		clients:  6,
		requests: 400,
	}.compare(t, 14250, 0x4039f359af0256c8)
}

// TestShardedMatchesOneShardOpenLoop drives wide cohorts: open-loop clients
// with identical fixed intervals inject at the same virtual instants, so
// cohorts span shards and the cross-shard merge does real work. The poisson
// variant staggers arrivals so cohort membership shifts every window.
func TestShardedMatchesOneShardOpenLoop(t *testing.T) {
	for _, poisson := range []bool{false, true} {
		name := "fixed"
		delivered, digest := uint64(15844), uint64(0x521a6e213dccc98b)
		if poisson {
			name = "poisson"
			delivered, digest = 15990, 0x7445876c2c19aed9
		}
		t.Run(name, func(t *testing.T) {
			shardRig{
				latency:  sim.DefaultLatencyModel(),
				proxies:  5,
				clients:  8,
				requests: 200,
				openLoop: true,
				poisson:  poisson,
			}.compare(t, delivered, digest)
		})
	}
}

// TestShardedMatchesOneShardDegenerateLatency collapses the latency model to
// a single tick so nearly every event in the run shares a timestamp —
// maximal cohort width, maximal merge pressure, and the regime where a
// sequence-numbering bug would surface immediately.
func TestShardedMatchesOneShardDegenerateLatency(t *testing.T) {
	shardRig{
		latency:  sim.LatencyModel{ClientProxy: 1, ProxyProxy: 1, ProxyOrigin: 1, Service: 0},
		proxies:  5,
		clients:  8,
		requests: 300,
		openLoop: true,
	}.compare(t, 18176, 0xf29cf7eee4242a10)
}

// TestShardedParallelMergePath forces the parallel rank+push merge (the
// production path for million-event cohorts) onto a small workload by
// dropping the serial-merge threshold to one emission, and requires the
// results to stay identical to the one-shard run.
func TestShardedParallelMergePath(t *testing.T) {
	defer sim.SetParallelMergeMin(1)()
	shardRig{
		latency:  sim.DefaultLatencyModel(),
		proxies:  5,
		clients:  8,
		requests: 200,
		openLoop: true,
	}.compare(t, 15844, 0x521a6e213dccc98b)
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
// and nothing may reorder: the run still matches, at every shard count, the
// one-shard digest recorded from the heap-only engine at b5667d5.
func TestLanesCarryEveryTransfer(t *testing.T) {
	const clients = 64
	rig := shardRig{
		latency:  sim.DefaultLatencyModel(),
		proxies:  5,
		clients:  clients,
		requests: 60,
		openLoop: true,
		poisson:  true,
	}
	watch := func(eng *sim.VEngine) (maxEvents, maxTransfers *int) {
		maxEvents, maxTransfers = new(int), new(int)
		rig.wrap = func(n sim.Node) sim.Node {
			return heapWatch{Node: n, eng: eng, maxEvents: maxEvents, maxTransfers: maxTransfers}
		}
		return maxEvents, maxTransfers
	}

	eng := sim.NewVEngine(rig.latency)
	maxEvents, maxTransfers := watch(eng)
	rig.run(t, eng)
	if *maxTransfers != 0 || *maxEvents > clients || *maxEvents == 0 {
		t.Errorf("lossless run: heap held up to %d events, %d of them transfers; want only the ≤ %d client timers",
			*maxEvents, *maxTransfers, clients)
	}

	rig.faults = &sim.FaultPlan{Seed: 9, Jitter: 20_000}
	eng = sim.NewVEngine(rig.latency)
	_, maxTransfers = watch(eng)
	rig.run(t, eng)
	if *maxTransfers == 0 {
		t.Error("jittered run: no transfer ever reached the heap, so the lanes' order guard was not exercised")
	}
	rig.wrap = nil
	rig.compare(t, 38538, 0xf314fee256f25e44)
}

// TestShardedUnregisteredNode checks the error path survives sharding.
func TestShardedUnregisteredNode(t *testing.T) {
	part, err := ids.NewShardMap(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewShardedVEngine(sim.DefaultLatencyModel(), part)
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

// TestShardedDuplicateRegister mirrors the FIFO engine's contract.
func TestShardedDuplicateRegister(t *testing.T) {
	part, err := ids.NewShardMap(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewShardedVEngine(sim.DefaultLatencyModel(), part)
	if err := eng.Register(sim.NewOrigin()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(sim.NewOrigin()); err == nil {
		t.Fatal("expected duplicate-node error, got nil")
	}
}
