package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// resultDigest folds every deterministic field of a Result into one value
// (Elapsed is wall clock and is left out). %v prints a float64 with the
// shortest digits that round-trip, so the digest is exact. The per-proxy
// counters print without their field names, so renaming a counter leaves
// every digest where it was.
func resultDigest(res *Result) uint64 {
	h := fnv.New64a()
	s := res.Summary
	s.Elapsed = 0
	fmt.Fprintf(h, "%+v|%+v|%v|%d|%d|%+v|%d|%v|%d|%d|%+v",
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
// interval: they all inject at the same ticks, so many events share a
// timestamp and only their sequence numbers order them.
func lockstep(c *Config) {
	c.Clients = 6
	c.OpenLoopInterval = 900
}

// queued charges every proxy visit a 150-tick service time behind a FIFO.
func queued(c *Config) {
	c.Latency = sim.DefaultLatencyModel()
	c.Latency.Service = 150
	c.Latency.QueueService = true
	c.ResponseBuckets = 4000
}

func buckets(c *Config)  { c.MetricsEvery = 50_000 }
func traced(c *Config)   { c.Tracer = obs.New() }
func recovery(c *Config) { c.Recovery = sim.DefaultRecovery() }

// lossy is goldenFaultPlan without its crash — loss, link loss and jitter —
// which is what the baseline cells were recorded with: crashes were then
// rejected for every algorithm but ADC.
func lossy(c *Config) {
	c.Faults = goldenFaultPlan()
	c.Faults.Crashes = nil
}

// algorithm returns a mutation that selects alg and then applies more.
func algorithm(alg Algorithm, more ...func(*Config)) func(*Config) {
	return func(c *Config) {
		c.Algorithm = alg
		for _, m := range more {
			m(c)
		}
	}
}

// faultDigest is resultDigest without the three observables a baseline
// fault cell pins on their own: Delivered, LeakedPending and the per-proxy
// ExpiredPending. They are what a pending-pass set and its recovery sweep
// move — stranded passes, expiries and sweep-timer deliveries — while
// everything else about the run stays put.
func faultDigest(res *Result) uint64 {
	r := *res
	r.Delivered, r.LeakedPending = 0, 0
	r.ProxyStats = slices.Clone(res.ProxyStats)
	for i := range r.ProxyStats {
		r.ProxyStats[i].ExpiredPending = 0
	}
	return resultDigest(&r)
}

// expiredPending sums ExpiredPending over every proxy.
func expiredPending(res *Result) uint64 {
	var n uint64
	for _, s := range res.ProxyStats {
		n += s.ExpiredPending
	}
	return n
}

// TestEngineGoldens pins the one virtual-time engine to what the sequential
// VEngine produced at cbc3d04 — the last commit that had a second engine —
// for the features that used to be rejected on more than one shard and
// were only repeatability-tested on one: faults with and without recovery,
// queued service, time-series buckets, the tracer's event stream and a
// mid-run proxy join. The constants were printed by this same table run
// against that commit; none may be edited to make a change pass.
//
// Three mutations show what they hold. Drawing jitter before loss in
// faultState.transfer fails the 14 cells whose fault plan jitters, the
// ones with "faults" in their name (churn-join+trace+recovery's plan only
// loses), and so does letting a lane in eventQueue.push accept an event
// that is not behind its tail, which lets a jittered transfer leave out of
// (at, seq) order; neither fails any other cell. Making event.before ignore
// seq, so same-tick events leave in heap order, fails 23 of the 36 cells,
// every lockstep cell among them.
//
// The cells named after a baseline (carp, chash, hier, coord) were recorded
// the same way from the commit before the baselines' own sim.Node types
// were deleted, so they pin what the baselines did then. Their fault cells
// compare faultDigest and pin LeakedPending and the summed ExpiredPending
// beside it.
func TestEngineGoldens(t *testing.T) {
	for _, cell := range engineGoldenCells() {
		// The "/shards=1" suffix is a name kept from when every cell also
		// ran on a partitioned queue: the engine has one queue now, and the
		// suffix stays so that no cell's test name changes.
		t.Run(cell.name+"/shards=1", cell.check)
	}
	// The baselines' lossless closed loop under RuntimeSequential; the
	// digests were recorded by the clockless FIFO engine that ran it before
	// the zero-cost VEngine did, hence the cells' fifo/ prefix.
	for alg, want := range map[Algorithm]uint64{
		CARP:         0xda6c041cda492568,
		CHash:        0xcefda5d84b302093,
		Hierarchical: 0x1f7f377814c6b982,
		Coordinator:  0x28bbdb155f32d83d,
	} {
		t.Run("fifo/"+alg.String(), func(t *testing.T) {
			cfg := goldenConfig(RuntimeSequential)
			cfg.Algorithm = alg
			res, err := Run(cfg, trace.NewSliceSource(goldenTrace()))
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != want {
				t.Errorf("drifted from the recorded FIFO run: digest %#x, want %#x", got, want)
			}
		})
	}
}

// TestEngineGoldensInWindows runs every TestEngineGoldens cell the engine
// may deliver in lookahead windows — no fault plan, queued service,
// tracer, time series or churn — with every window forced onto two
// goroutines, however small, even on one processor, and holds it to the
// same recorded constants as the one-event-at-a-time run.
func TestEngineGoldensInWindows(t *testing.T) {
	defer sim.ForceWindows()()
	ran := 0
	for _, cell := range engineGoldenCells() {
		cfg := goldenConfig(RuntimeVirtualTime)
		cell.mutate(&cfg)
		if cfg.Faults != nil || cfg.Latency.QueueService || cfg.Tracer != nil || cfg.MetricsEvery > 0 || len(cfg.JoinProxyAt) > 0 {
			continue
		}
		ran++
		t.Run(cell.name, cell.check)
	}
	if ran != 8 {
		t.Errorf("%d window-safe cells, want the 8 baseline cells (closed and lockstep loops of carp, chash, hier, coord)", ran)
	}
}

// engineGolden is what a TestEngineGoldens cell pins.
type engineGolden struct {
	delivered, dropped, requests, hits uint64
	faults                             sim.FaultStats
	buckets                            int
	p99                                float64
	result                             uint64
	events                             int
	trace                              uint64
	leaked                             int
	expired                            uint64
}

// engineGoldenCell is one TestEngineGoldens cell: the golden run with
// mutate applied, and what it must produce.
type engineGoldenCell struct {
	name   string
	mutate func(*Config)
	want   engineGolden
}

// check runs the cell and compares it with the recorded constants.
func (cell engineGoldenCell) check(t *testing.T) {
	cfg := goldenConfig(RuntimeVirtualTime)
	cell.mutate(&cfg)
	res, err := Run(cfg, trace.NewSliceSource(goldenTrace()))
	if err != nil {
		t.Fatal(err)
	}
	got := engineGolden{
		delivered: res.Delivered, dropped: res.Dropped,
		requests: res.Summary.Requests, hits: res.Summary.Hits,
		faults: res.Faults, buckets: len(res.Buckets),
		p99: res.Summary.P99Response, result: resultDigest(res),
	}
	if cfg.Algorithm != ADC && cfg.Faults != nil {
		got.result = faultDigest(res)
		got.leaked, got.expired = res.LeakedPending, expiredPending(res)
	}
	if cfg.Tracer != nil {
		got.events, got.trace = cfg.Tracer.Len(), traceDigest(cfg.Tracer)
	}
	if got != cell.want {
		t.Errorf("drifted from the recorded VEngine run:\n got %+v\nwant %+v", got, cell.want)
	}
}

// engineGoldenCells are the TestEngineGoldens cells; each call builds fresh
// mutations (a tracer is state).
func engineGoldenCells() []engineGoldenCell {
	type golden = engineGolden
	return []engineGoldenCell{
		{"faults", func(c *Config) { c.Faults = goldenFaultPlan() },
			golden{delivered: 64, dropped: 3, requests: 6, hits: 0, faults: sim.FaultStats{LossDrops: 1, LinkDrops: 0, CrashDrops: 2, Crashes: 1, Restarts: 1}, result: 0xf7d5dcdcea4dff2}},
		{"faults+recovery", func(c *Config) {
			c.Faults = goldenFaultPlan()
			c.Recovery = sim.DefaultRecovery()
		}, golden{delivered: 37881, dropped: 555, requests: 4000, hits: 1313, faults: sim.FaultStats{LossDrops: 511, LinkDrops: 40, CrashDrops: 4, Crashes: 1, Restarts: 1}, result: 0x9766bfea4d42f56d}},
		{"lockstep/faults", func(c *Config) {
			lockstep(c)
			c.Faults = goldenFaultPlan()
		}, golden{delivered: 25575, dropped: 1200, requests: 2800, hits: 515, faults: sim.FaultStats{LossDrops: 457, LinkDrops: 43, CrashDrops: 700, Crashes: 1, Restarts: 1}, result: 0x891fdf8ced88d67a}},
		{"lockstep/faults+recovery", func(c *Config) {
			lockstep(c)
			c.Faults = goldenFaultPlan()
			c.Recovery = sim.DefaultRecovery()
		}, golden{delivered: 47659, dropped: 1766, requests: 4000, hits: 855, faults: sim.FaultStats{LossDrops: 619, LinkDrops: 58, CrashDrops: 1089, Crashes: 1, Restarts: 1}, result: 0x20e38835f5730fb4}},
		{"lockstep/queued-service", func(c *Config) {
			lockstep(c)
			c.Latency = sim.DefaultLatencyModel()
			c.Latency.Service = 150
			c.Latency.QueueService = true
			c.ResponseBuckets = 4000
		}, golden{delivered: 31308, requests: 4000, hits: 665, p99: 313000, result: 0x228cdf300bb08d1e}},
		{"buckets", func(c *Config) { c.MetricsEvery = 50_000 },
			golden{delivered: 23482, requests: 4000, hits: 1290, buckets: 2802, result: 0xc78dfdd364b46585}},
		{"lockstep/buckets+faults+recovery", func(c *Config) {
			lockstep(c)
			c.MetricsEvery = 50_000
			c.Faults = goldenFaultPlan()
			c.Recovery = sim.DefaultRecovery()
		}, golden{delivered: 47659, dropped: 1766, requests: 4000, hits: 855, faults: sim.FaultStats{LossDrops: 619, LinkDrops: 58, CrashDrops: 1089, Crashes: 1, Restarts: 1}, buckets: 259, result: 0x94bcfe28c9a9d601}},
		{"trace", func(c *Config) { c.Tracer = obs.New() },
			golden{delivered: 23482, requests: 4000, hits: 1290, result: 0xc9f1f2bf4ca93359, events: 27482, trace: 0x6dc68083d2a0c5fc}},
		{"lockstep/trace+faults+recovery", func(c *Config) {
			lockstep(c)
			c.Tracer = obs.New()
			c.Faults = goldenFaultPlan()
			c.Recovery = sim.DefaultRecovery()
		}, golden{delivered: 47659, dropped: 1766, requests: 4000, hits: 855, faults: sim.FaultStats{LossDrops: 619, LinkDrops: 58, CrashDrops: 1089, Crashes: 1, Restarts: 1}, result: 0x20e38835f5730fb4, events: 39168, trace: 0x3e13b87b73854075}},
		{"churn-join", func(c *Config) {
			c.Clients = 1
			c.JoinProxyAt = []uint64{1500}
		}, golden{delivered: 24226, requests: 4000, hits: 1316, result: 0x6d7a7927c5e90127}},
		// Untraced churn on a coarse time grid: every link costs 1000 ticks
		// and the proxies' pending sweeps fire every 20 000, so sweep timers
		// share timestamps with the client's replies, joins included.
		{"churn-join+recovery/coarse-grid", func(c *Config) {
			c.Clients = 1
			c.JoinProxyAt = []uint64{500, 1000}
			c.Latency = sim.LatencyModel{ClientProxy: 1000, ProxyProxy: 1000, ProxyOrigin: 1000}
			c.Recovery = sim.DefaultRecovery()
			c.Recovery.PendingTTL = 20_000
		}, golden{delivered: 35948, requests: 4000, hits: 1433, result: 0x5a8ba7a7a6f38e0f}},
		{"churn-join+trace+recovery", func(c *Config) {
			c.Clients = 1
			c.JoinProxyAt = []uint64{1500}
			c.Tracer = obs.New()
			c.Faults = &sim.FaultPlan{Seed: 7, Loss: 0.02}
			c.Recovery = sim.DefaultRecovery()
		}, golden{delivered: 37763, dropped: 491, requests: 4000, hits: 1384, faults: sim.FaultStats{LossDrops: 491}, result: 0xba6b0394533bd6a4, events: 31292, trace: 0x63b5e3ce04520ef6}},

		{"carp", algorithm(CARP),
			golden{delivered: 14613, requests: 4000, hits: 2310, result: 0xc8018f31cc772527}},
		{"carp/lockstep", algorithm(CARP, lockstep),
			golden{delivered: 19362, requests: 4000, hits: 1915, result: 0x8a7a68e56c0b6b52}},
		{"carp/lockstep/queued-service", algorithm(CARP, lockstep, queued),
			golden{delivered: 19412, requests: 4000, hits: 1890, p99: 122666.66666666667, result: 0x140d0d2b87904fcb}},
		{"carp/buckets", algorithm(CARP, buckets),
			golden{delivered: 14613, requests: 4000, hits: 2310, buckets: 1638, result: 0x32397f1c1b09e780}},
		{"carp/trace", algorithm(CARP, traced),
			golden{delivered: 14613, requests: 4000, hits: 2310, result: 0xc8018f31cc772527, events: 18613, trace: 0x9f9a4271cbe3d433}},
		{"carp/lockstep/faults", algorithm(CARP, lockstep, lossy),
			golden{delivered: 18679, dropped: 318, requests: 3682, hits: 1731, faults: sim.FaultStats{LossDrops: 306, LinkDrops: 12}, result: 0x9d21e931515425fa, leaked: 77, expired: 0}},
		{"carp/faults+recovery", algorithm(CARP, lossy, recovery),
			golden{delivered: 21062, dropped: 321, requests: 4000, hits: 2338, faults: sim.FaultStats{LossDrops: 301, LinkDrops: 20}, result: 0x1acd6843aa7d01c6, leaked: 0, expired: 73}},

		{"chash", algorithm(CHash),
			golden{delivered: 14581, requests: 4000, hits: 2309, result: 0x40d45b0dafe43813}},
		{"chash/lockstep", algorithm(CHash, lockstep),
			golden{delivered: 19440, requests: 4000, hits: 1886, result: 0xe01b549738215703}},
		{"chash/lockstep/queued-service", algorithm(CHash, lockstep, queued),
			golden{delivered: 19474, requests: 4000, hits: 1869, p99: 123205.88235294117, result: 0xd2f1b5bb90fcabba}},
		{"chash/buckets", algorithm(CHash, buckets),
			golden{delivered: 14581, requests: 4000, hits: 2309, buckets: 1659, result: 0x22e9de81fd500ae9}},
		{"chash/trace", algorithm(CHash, traced),
			golden{delivered: 14581, requests: 4000, hits: 2309, result: 0x40d45b0dafe43813, events: 18581, trace: 0xec7f2e8b9358ddfb}},
		{"chash/lockstep/faults", algorithm(CHash, lockstep, lossy),
			golden{delivered: 18691, dropped: 306, requests: 3694, hits: 1756, faults: sim.FaultStats{LossDrops: 290, LinkDrops: 16}, result: 0xc39872a7de2481, leaked: 89, expired: 0}},
		{"chash/faults+recovery", algorithm(CHash, lossy, recovery),
			golden{delivered: 21006, dropped: 321, requests: 4000, hits: 2352, faults: sim.FaultStats{LossDrops: 298, LinkDrops: 23}, result: 0x45729cc42266cfc2, leaked: 0, expired: 59}},

		{"hier", algorithm(Hierarchical),
			golden{delivered: 21498, requests: 4000, hits: 790, result: 0xe04ac21ad07e9e59}},
		{"hier/lockstep", algorithm(Hierarchical, lockstep),
			golden{delivered: 25602, requests: 4000, hits: 819, result: 0x10727f674c1e9c36}},
		{"hier/lockstep/queued-service", algorithm(Hierarchical, lockstep, queued),
			golden{delivered: 25798, requests: 4000, hits: 753, p99: 525166.6666666666, result: 0x31e2e0db1233c3c3}},
		{"hier/lockstep/faults", algorithm(Hierarchical, lockstep, lossy),
			golden{delivered: 24394, dropped: 414, requests: 3586, hits: 706, faults: sim.FaultStats{LossDrops: 414}, result: 0x5a271953ca45b0ec, leaked: 390, expired: 0}},
		{"hier/faults+recovery", algorithm(Hierarchical, lossy, recovery),
			golden{delivered: 33713, dropped: 451, requests: 4000, hits: 932, faults: sim.FaultStats{LossDrops: 451}, result: 0xa7292e7b41502268, leaked: 0, expired: 419}},

		{"coord", algorithm(Coordinator),
			golden{delivered: 23046, requests: 4000, hits: 477, result: 0x490743e32055c8a3}},
		{"coord/lockstep", algorithm(Coordinator, lockstep),
			golden{delivered: 27146, requests: 4000, hits: 430, result: 0xddcebd11308204e7}},
		{"coord/lockstep/queued-service", algorithm(Coordinator, lockstep, queued),
			golden{delivered: 27106, requests: 4000, hits: 450, p99: 622968.253968254, result: 0x5236dd25d0eed3bc}},
		{"coord/lockstep/faults", algorithm(Coordinator, lockstep, lossy),
			golden{delivered: 25688, dropped: 443, requests: 3557, hits: 366, faults: sim.FaultStats{LossDrops: 443}, result: 0x3ac79d16ad19d9ea, leaked: 416, expired: 0}},
		{"coord/faults+recovery", algorithm(Coordinator, lossy, recovery),
			golden{delivered: 37082, dropped: 505, requests: 4000, hits: 472, faults: sim.FaultStats{LossDrops: 505}, result: 0x7e280edc045e7d17, leaked: 0, expired: 458}},
	}
}

// TestZeroLatencyMatchesFIFO makes a plain FIFO loop (fifoOracle) an
// independent oracle for delivery order: with every link and service cost
// zero, all events share timestamp 0, so the engine's (at, seq) order
// degenerates to enqueue order — exactly a FIFO queue. The oracle shares no
// queue code with sim.VEngine, so agreement on every observable of the
// golden trace, for all five algorithms, checks the event queue's lanes,
// heap and head pick against a ten-line loop.
func TestZeroLatencyMatchesFIFO(t *testing.T) {
	for _, alg := range []Algorithm{ADC, CARP, CHash, Hierarchical, Coordinator} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := goldenConfig(RuntimeSequential)
			cfg.Algorithm = alg
			c, err := New(cfg, trace.NewSliceSource(goldenTrace()))
			if err != nil {
				t.Fatal(err)
			}
			oracle := &fifoOracle{t: t}
			if err := oracle.run(c.nodes); err != nil {
				t.Fatal(err)
			}
			want := c.collect(0)
			want.Delivered = oracle.delivered
			got, err := Run(cfg, trace.NewSliceSource(goldenTrace()))
			if err != nil {
				t.Fatal(err)
			}
			requireSameRunResult(t, "sequential", want, got)
		})
	}
}

// fifoOracle is the reference a zero-cost run is held to: a FIFO queue of
// messages drained one at a time, with no clock. VNow stands at 0 and After
// fails the test: nothing in a zero-cost closed loop arms a timer.
type fifoOracle struct {
	t         *testing.T
	nodes     ids.Table[sim.Node]
	queue     []msg.Message
	fl        msg.Freelist
	delivered uint64
}

func (f *fifoOracle) Send(m msg.Message) {
	sim.CountHop(m)
	f.queue = append(f.queue, m)
}

func (f *fifoOracle) Freelist() *msg.Freelist { return &f.fl }

func (f *fifoOracle) VNow() int64 { return 0 }

func (f *fifoOracle) After(delay int64, m msg.Message) {
	f.t.Fatalf("a zero-cost closed loop armed a timer: After(%d, %T)", delay, m)
}

// run registers nodes, starts every Starter in ascending NodeID order and
// delivers until the queue drains.
func (f *fifoOracle) run(nodes []sim.Node) error {
	for _, n := range nodes {
		if !f.nodes.Put(n.ID(), n) {
			return fmt.Errorf("duplicate node %v", n.ID())
		}
	}
	f.nodes.Ascending(func(_ ids.NodeID, n sim.Node) {
		if s, ok := n.(sim.Starter); ok {
			s.Start(f)
		}
	})
	for head := 0; head < len(f.queue); head++ {
		m := f.queue[head]
		f.queue[head] = nil
		n, ok := f.nodes.Get(m.Dest())
		if !ok {
			return fmt.Errorf("message for unregistered node %v", m.Dest())
		}
		f.delivered++
		n.Handle(f, m)
	}
	return nil
}
