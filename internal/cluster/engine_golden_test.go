package cluster

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// engineGoldenShards are the widths every engine golden holds at: the
// sequential run, even splits, an uneven split (3 shards over 5 proxies)
// and more shards than proxies.
var engineGoldenShards = []int{1, 2, 3, 4, 8}

// resultDigest folds every deterministic field of a Result into one value
// (Elapsed is wall clock and is left out). %v prints a float64 with the
// shortest digits that round-trip, so the digest is exact.
func resultDigest(res *Result) uint64 {
	h := fnv.New64a()
	s := res.Summary
	s.Elapsed = 0
	fmt.Fprintf(h, "%+v|%+v|%+v|%d|%d|%+v|%d|%v|%d|%d|%+v",
		s, res.Series, res.ProxyStats, res.Delivered, res.Dropped, res.Faults,
		res.Injected, res.Completion, res.LeakedPending, res.OriginResolved, res.Buckets)
	return h.Sum64()
}

// traceDigest hashes the full tracer event stream, order included.
func traceDigest(tr *obs.Tracer) uint64 {
	h := fnv.New64a()
	for _, e := range tr.Events() {
		fmt.Fprintf(h, "%+v\n", e)
	}
	return h.Sum64()
}

// goldenFaultPlan exercises every draw of the fault stream — i.i.d. loss,
// link loss, jitter — plus a cold crash/restart (TestFaultPlanDeterminism's
// plan).
func goldenFaultPlan() *sim.FaultPlan {
	return &sim.FaultPlan{
		Seed:   7,
		Loss:   0.02,
		Jitter: 1500,
		LinkLoss: []sim.LinkLoss{
			{From: ids.NodeID(1), To: ids.NodeID(2), Rate: 0.1},
		},
		Crashes: []sim.Crash{
			{Node: ids.NodeID(3), At: 400_000, RestartAt: 1_200_000, LoseTables: true},
		},
	}
}

// lockstep switches the golden run to six open-loop clients on one fixed
// interval: they all inject at the same ticks, so cohorts span every shard
// and the merge, not the inline path, does the work.
func lockstep(c *Config) {
	c.Clients = 6
	c.OpenLoopInterval = 900
}

// TestEngineGoldens pins the one virtual-time engine, at every shard count,
// to what the sequential VEngine produced at cbc3d04 — the last commit that
// had a second engine — for the features that used to be rejected on more
// than one shard and were only repeatability-tested on one: faults with and
// without recovery, queued service, time-series buckets, the tracer's event
// stream and a mid-run proxy join. The constants were printed by this same
// table run against that commit; none may be edited to make a change pass.
//
// Two mutations show what they hold. Drawing jitter before loss in
// faultState.transfer fails every cell with a fault plan. Dropping the
// "ordered" arm of VEngine.Run, so a traced multi-shard cohort fans out per
// shard, fails the lockstep trace digest at every shards > 1 (and trips the
// race detector). Removing cluster.Run's eng.Serialize() call fans out the
// cohorts of the coarse-grid churn cell, joins included, and fails it under
// -race at any shards > 1: a join registers a node while another shard's
// handler looks one up.
func TestEngineGoldens(t *testing.T) {
	type golden struct {
		delivered, dropped, requests, hits uint64
		faults                             sim.FaultStats
		buckets                            int
		p99                                float64
		result                             uint64
		events                             int
		trace                              uint64
	}
	cells := []struct {
		name   string
		mutate func(*Config)
		want   golden
	}{
		{"faults", func(c *Config) { c.Faults = goldenFaultPlan() },
			golden{delivered: 64, dropped: 3, requests: 6, hits: 0, faults: sim.FaultStats{LossDrops: 1, LinkDrops: 0, CrashDrops: 2, Crashes: 1, Restarts: 1}, result: 0x104c4f23d1511bc7}},
		{"faults+recovery", func(c *Config) {
			c.Faults = goldenFaultPlan()
			c.Recovery = sim.DefaultRecovery()
		}, golden{delivered: 37881, dropped: 555, requests: 4000, hits: 1313, faults: sim.FaultStats{LossDrops: 511, LinkDrops: 40, CrashDrops: 4, Crashes: 1, Restarts: 1}, result: 0x3d28bea8740f45da}},
		{"lockstep/faults", func(c *Config) {
			lockstep(c)
			c.Faults = goldenFaultPlan()
		}, golden{delivered: 25575, dropped: 1200, requests: 2800, hits: 515, faults: sim.FaultStats{LossDrops: 457, LinkDrops: 43, CrashDrops: 700, Crashes: 1, Restarts: 1}, result: 0xf41f8d695bad8a07}},
		{"lockstep/faults+recovery", func(c *Config) {
			lockstep(c)
			c.Faults = goldenFaultPlan()
			c.Recovery = sim.DefaultRecovery()
		}, golden{delivered: 47659, dropped: 1766, requests: 4000, hits: 855, faults: sim.FaultStats{LossDrops: 619, LinkDrops: 58, CrashDrops: 1089, Crashes: 1, Restarts: 1}, result: 0x4ae664b3d08b9eb3}},
		{"lockstep/queued-service", func(c *Config) {
			lockstep(c)
			c.Latency = sim.DefaultLatencyModel()
			c.Latency.Service = 150
			c.Latency.QueueService = true
			c.ResponseBuckets = 4000
		}, golden{delivered: 31308, requests: 4000, hits: 665, p99: 313000, result: 0xf4822acebd1c982b}},
		{"buckets", func(c *Config) { c.MetricsEvery = 50_000 },
			golden{delivered: 23482, requests: 4000, hits: 1290, buckets: 2802, result: 0x1dc3befe9834dd54}},
		{"lockstep/buckets+faults+recovery", func(c *Config) {
			lockstep(c)
			c.MetricsEvery = 50_000
			c.Faults = goldenFaultPlan()
			c.Recovery = sim.DefaultRecovery()
		}, golden{delivered: 47659, dropped: 1766, requests: 4000, hits: 855, faults: sim.FaultStats{LossDrops: 619, LinkDrops: 58, CrashDrops: 1089, Crashes: 1, Restarts: 1}, buckets: 259, result: 0x18af5dd29580b3a}},
		{"trace", func(c *Config) { c.Tracer = obs.New() },
			golden{delivered: 23482, requests: 4000, hits: 1290, result: 0xf73018a145c2d18c, events: 27482, trace: 0x6dc68083d2a0c5fc}},
		{"lockstep/trace+faults+recovery", func(c *Config) {
			lockstep(c)
			c.Tracer = obs.New()
			c.Faults = goldenFaultPlan()
			c.Recovery = sim.DefaultRecovery()
		}, golden{delivered: 47659, dropped: 1766, requests: 4000, hits: 855, faults: sim.FaultStats{LossDrops: 619, LinkDrops: 58, CrashDrops: 1089, Crashes: 1, Restarts: 1}, result: 0x4ae664b3d08b9eb3, events: 39168, trace: 0x3e13b87b73854075}},
		{"churn-join", func(c *Config) {
			c.Clients = 1
			c.JoinProxyAt = []uint64{1500}
		}, golden{delivered: 24226, requests: 4000, hits: 1316, result: 0x4d0e8a7a78ac2fe9}},
		// Untraced churn on a coarse time grid: every link costs 1000 ticks
		// and the proxies' pending sweeps fire every 20 000, so sweep timers
		// share timestamps with the client's replies, joins included.
		{"churn-join+recovery/coarse-grid", func(c *Config) {
			c.Clients = 1
			c.JoinProxyAt = []uint64{500, 1000}
			c.Latency = sim.LatencyModel{ClientProxy: 1000, ProxyProxy: 1000, ProxyOrigin: 1000}
			c.Recovery = sim.DefaultRecovery()
			c.Recovery.PendingTTL = 20_000
		}, golden{delivered: 35948, requests: 4000, hits: 1433, result: 0xcb18150e27eabbf6}},
		{"churn-join+trace+recovery", func(c *Config) {
			c.Clients = 1
			c.JoinProxyAt = []uint64{1500}
			c.Tracer = obs.New()
			c.Faults = &sim.FaultPlan{Seed: 7, Loss: 0.02}
			c.Recovery = sim.DefaultRecovery()
		}, golden{delivered: 37763, dropped: 491, requests: 4000, hits: 1384, faults: sim.FaultStats{LossDrops: 491}, result: 0xfc676df9f0d61190, events: 31292, trace: 0x63b5e3ce04520ef6}},
	}
	for _, cell := range cells {
		for _, shards := range engineGoldenShards {
			t.Run(fmt.Sprintf("%s/shards=%d", cell.name, shards), func(t *testing.T) {
				cfg := goldenConfig(RuntimeVirtualTime)
				cfg.Shards = shards
				cell.mutate(&cfg)
				res, err := Run(cfg, trace.NewSliceSource(goldenTrace()))
				if err != nil {
					t.Fatal(err)
				}
				got := golden{
					delivered: res.Delivered, dropped: res.Dropped,
					requests: res.Summary.Requests, hits: res.Summary.Hits,
					faults: res.Faults, buckets: len(res.Buckets),
					p99: res.Summary.P99Response, result: resultDigest(res),
				}
				if cfg.Tracer != nil {
					got.events, got.trace = cfg.Tracer.Len(), traceDigest(cfg.Tracer)
				}
				if got != cell.want {
					t.Errorf("drifted from the recorded VEngine run:\n got %+v\nwant %+v", got, cell.want)
				}
			})
		}
	}
}

// TestZeroLatencyMatchesFIFO makes the FIFO sim.Engine an independent
// oracle for delivery order: with every link and service cost zero, all
// events share timestamp 0, so the virtual-time engine's (at, seq) order
// degenerates to enqueue order — exactly a FIFO queue. The two engines
// share no queue code, so agreement on every observable of the golden
// trace, for all five algorithms and sharded or not, checks the heap, the
// cohort limit and the merge against a ten-line loop.
func TestZeroLatencyMatchesFIFO(t *testing.T) {
	for _, alg := range []Algorithm{ADC, CARP, CHash, Hierarchical, Coordinator} {
		t.Run(alg.String(), func(t *testing.T) {
			fifoCfg := goldenConfig(RuntimeSequential)
			fifoCfg.Algorithm = alg
			fifo, err := Run(fifoCfg, trace.NewSliceSource(goldenTrace()))
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 3} {
				eng := sim.NewVEngine(sim.LatencyModel{})
				if shards > 1 {
					span := fifoCfg.NumProxies + 1 // room for the root/dispatcher
					part, err := ids.NewShardMap(shards, span)
					if err != nil {
						t.Fatal(err)
					}
					eng = sim.NewShardedVEngine(sim.LatencyModel{}, part)
				}
				c, err := New(fifoCfg, trace.NewSliceSource(goldenTrace()))
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range c.nodes {
					if err := eng.Register(n); err != nil {
						t.Fatal(err)
					}
				}
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				got := c.collect(0)
				got.Delivered = eng.Delivered()
				requireSameRunResult(t, fmt.Sprintf("shards=%d", shards), fifo, got)
			}
		})
	}
}
