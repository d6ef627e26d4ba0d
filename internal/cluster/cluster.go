// Package cluster wires complete proxy systems — N proxy agents, an origin
// server and closed-loop client drivers — and runs a workload against them
// on one of the interchangeable runtimes (FIFO engine, virtual-time engine,
// goroutine agents). It is the programmatic equivalent of
// the paper's experimental testbed (§V.1) and the layer the public API and
// the benchmark harness sit on.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"github.com/adc-sim/adc/internal/agent"
	"github.com/adc-sim/adc/internal/carp"
	"github.com/adc-sim/adc/internal/chash"
	"github.com/adc-sim/adc/internal/coordinator"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/hierarchy"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/proxy"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/stats"
	"github.com/adc-sim/adc/internal/trace"
	"github.com/adc-sim/adc/internal/workload"
)

// Algorithm selects the distributed-caching scheme under test.
type Algorithm int

// Supported algorithms.
const (
	// ADC is the paper's Adaptive Distributed Caching.
	ADC Algorithm = iota + 1
	// CARP is the paper's hashing baseline (§V.1.1).
	CARP
	// CHash is the consistent-hashing extension baseline (ref [13]).
	CHash
	// Hierarchical is the classic parent/child caching tree baseline
	// (refs [20][21][27]): N leaves sharing one root parent.
	Hierarchical
	// Coordinator is the authors' first-generation central-coordinator
	// baseline (§II.1, ref [26]): one dispatcher in front of N caches.
	Coordinator
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case ADC:
		return "adc"
	case CARP:
		return "carp"
	case CHash:
		return "chash"
	case Hierarchical:
		return "hier"
	case Coordinator:
		return "coord"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a CLI string to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "adc":
		return ADC, nil
	case "carp", "hash", "hashing":
		return CARP, nil
	case "chash", "consistent":
		return CHash, nil
	case "hier", "hierarchy", "hierarchical":
		return Hierarchical, nil
	case "coord", "coordinator":
		return Coordinator, nil
	default:
		return 0, fmt.Errorf("cluster: unknown algorithm %q (want adc, carp, chash, hier or coord)", s)
	}
}

// Runtime selects the execution substrate.
type Runtime int

// Supported runtimes.
const (
	// RuntimeSequential is the deterministic single-threaded engine.
	RuntimeSequential Runtime = iota
	// RuntimeAgents runs one goroutine per node (internal/agent).
	RuntimeAgents
	// RuntimeVirtualTime is the discrete-event engine (sim.VEngine):
	// deterministic like RuntimeSequential, but every transfer is delayed
	// by a latency model, yielding response-time metrics and supporting
	// open-loop (fixed request rate) injection, fault injection, recovery,
	// tracing and windowed time series. Config.Shards spreads the run over
	// that many cores with byte-identical results.
	RuntimeVirtualTime
)

// String implements fmt.Stringer.
func (r Runtime) String() string {
	switch r {
	case RuntimeSequential:
		return "sequential"
	case RuntimeAgents:
		return "agents"
	case RuntimeVirtualTime:
		return "vtime"
	default:
		return fmt.Sprintf("Runtime(%d)", int(r))
	}
}

// ParseRuntime converts a runtime name ("sequential", "agents", "vtime") to
// its Runtime; the empty string selects the default and "virtual" is an
// alias for "vtime".
func ParseRuntime(name string) (Runtime, bool) {
	switch name {
	case "", "sequential":
		return RuntimeSequential, true
	case "agents":
		return RuntimeAgents, true
	case "vtime", "virtual":
		return RuntimeVirtualTime, true
	default:
		return 0, false
	}
}

// Config describes one simulation run. The zero value is not runnable; use
// the With* helpers in the public package or fill the fields directly.
type Config struct {
	// Algorithm selects ADC, CARP or CHash.
	Algorithm Algorithm

	// NumProxies is the array size (the paper runs 5, §V.2).
	NumProxies int

	// Tables sizes the ADC mapping tables. For CARP/CHash only
	// CachingSize matters (the LRU cache size); the other fields are
	// ignored so one Config can drive a fair comparison.
	Tables core.Config

	// MaxHops bounds ADC request forwarding (0 = unbounded, the
	// paper's setting).
	MaxHops int

	// Seed makes the run deterministic.
	Seed int64

	// EntryPolicy selects how clients pick their first proxy.
	EntryPolicy sim.EntryPolicy

	// Clients is the number of closed-loop drivers (default 1; the
	// trace is split round-robin between them).
	Clients int

	// Window is the moving-average window (default 5000, §V.2.1).
	Window int

	// SampleEvery records one time-series point per n requests
	// (0 disables series collection; summaries are always available).
	SampleEvery uint64

	// Runtime selects sequential, concurrent or virtual-time execution.
	Runtime Runtime

	// Latency is the virtual-time latency model; the zero value selects
	// sim.DefaultLatencyModel(). Used by RuntimeVirtualTime.
	Latency sim.LatencyModel

	// Shards is the number of engine shards for RuntimeVirtualTime; 0 and
	// 1 are the sequential run. Results are byte-identical at every shard
	// count and every feature works at every shard count; the setting
	// only chooses how many cores the run spreads over. Setting it on any
	// other runtime is a configuration error.
	Shards int

	// OpenLoopInterval switches clients to open-loop injection with
	// this mean inter-arrival time in virtual ticks (0 = closed loop).
	// Requires RuntimeVirtualTime.
	OpenLoopInterval int64

	// Poisson draws exponential inter-arrival times in open-loop mode.
	Poisson bool

	// JoinProxyAt grows the cluster by one fresh ADC proxy when the
	// request stream crosses each index (strictly increasing). Requires
	// ADC, RuntimeSequential or RuntimeVirtualTime, and a single
	// closed-loop client (see churn.go).
	JoinProxyAt []uint64

	// Faults injects deterministic failures — seeded message loss, delay
	// jitter, scheduled fail-stop crashes — into the run. Requires
	// RuntimeVirtualTime; nil keeps the paper's lossless transport and
	// leaves every code path byte-identical to a fault-free build.
	Faults *sim.FaultPlan

	// CrashProxyAt / RestartProxyAt are the churn-style convenience
	// spelling of fail-stop failures (see churn.go); they merge into the
	// engine's fault plan. Requires ADC and RuntimeVirtualTime.
	CrashProxyAt   []ProxyCrash
	RestartProxyAt []ProxyRestart

	// Recovery enables the timeout/retransmission/pending-TTL recovery
	// protocol — an extension beyond the paper. Requires
	// RuntimeVirtualTime; the zero value is disabled.
	Recovery sim.Recovery

	// Replication enables the hot-object replication controller on every
	// ADC proxy: hot entries become multi-homed, forwarding picks among
	// the holders by power-of-two-choices on local load estimates, and
	// cold copies drop back toward the stock single-location state (see
	// protocol.Replication). Requires the ADC algorithm; the zero value
	// keeps stock behavior byte-identical.
	Replication protocol.Replication

	// ResponseBuckets, when positive, gives every client a response-time
	// histogram with that many buckets of ResponseBucketTicks width
	// (default 500 ticks), enabling Result.Summary.P99Response. Requires
	// RuntimeVirtualTime, where response times exist.
	ResponseBuckets     int
	ResponseBucketTicks int

	// Tracer, when non-nil, records per-hop request-path events across
	// clients, proxies, the origin, and the engine's drop paths. Requires
	// a deterministic engine (RuntimeSequential or RuntimeVirtualTime);
	// nil keeps every hot path on its single-branch disabled guard.
	Tracer *obs.Tracer

	// MetricsEvery, when positive, records windowed time-series buckets
	// (hit rate, hops, inter-request gaps, fault counters, per-proxy
	// table occupancy) every MetricsEvery virtual ticks. Requires
	// RuntimeVirtualTime.
	MetricsEvery int64
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch c.Algorithm {
	case ADC, CARP, CHash, Hierarchical, Coordinator:
	default:
		return fmt.Errorf("cluster: invalid algorithm %d", int(c.Algorithm))
	}
	if c.NumProxies <= 0 {
		return fmt.Errorf("cluster: NumProxies must be positive, got %d", c.NumProxies)
	}
	if c.Clients < 0 {
		return fmt.Errorf("cluster: Clients must be non-negative, got %d", c.Clients)
	}
	if c.MaxHops < 0 {
		return fmt.Errorf("cluster: MaxHops must be non-negative, got %d", c.MaxHops)
	}
	if c.Algorithm == ADC {
		if err := c.Tables.Validate(); err != nil {
			return err
		}
	} else if c.Tables.CachingSize <= 0 {
		return fmt.Errorf("cluster: CachingSize must be positive, got %d", c.Tables.CachingSize)
	}
	if c.OpenLoopInterval < 0 {
		return fmt.Errorf("cluster: OpenLoopInterval must be non-negative, got %d", c.OpenLoopInterval)
	}
	if c.OpenLoopInterval > 0 && c.Runtime != RuntimeVirtualTime {
		return fmt.Errorf("cluster: open-loop injection requires the virtual-time runtime")
	}
	if c.Shards < 0 {
		return fmt.Errorf("cluster: Shards must be non-negative, got %d", c.Shards)
	}
	if c.Shards > 0 && c.Runtime != RuntimeVirtualTime {
		return fmt.Errorf("cluster: Shards requires the virtual-time runtime")
	}
	if c.Tracer != nil && c.Runtime != RuntimeSequential && c.Runtime != RuntimeVirtualTime {
		return fmt.Errorf("cluster: tracing requires the sequential or virtual-time runtime")
	}
	if c.MetricsEvery < 0 {
		return fmt.Errorf("cluster: MetricsEvery must be non-negative, got %d", c.MetricsEvery)
	}
	if c.MetricsEvery > 0 && c.Runtime != RuntimeVirtualTime {
		return fmt.Errorf("cluster: time-series metrics require the virtual-time runtime")
	}
	if err := c.Replication.Normalize().Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if c.Replication.Enabled && c.Algorithm != ADC {
		return fmt.Errorf("cluster: replication requires the ADC algorithm")
	}
	if c.ResponseBuckets < 0 || c.ResponseBucketTicks < 0 {
		return fmt.Errorf("cluster: response histogram sizes must be non-negative")
	}
	if c.ResponseBuckets > 0 && c.Runtime != RuntimeVirtualTime {
		return fmt.Errorf("cluster: response histograms require the virtual-time runtime")
	}
	if c.Latency.QueueService && c.Runtime != RuntimeVirtualTime {
		return fmt.Errorf("cluster: queued service requires the virtual-time runtime")
	}
	if err := c.validateChurn(); err != nil {
		return err
	}
	return c.validateFaults()
}

// Result is the outcome of one run.
type Result struct {
	// Summary aggregates all clients.
	Summary metrics.Summary
	// Series is client 0's time series (empty if SampleEvery == 0).
	Series []metrics.Point
	// ProxyStats holds one entry per proxy, indexed by proxy ID.
	ProxyStats []metrics.ProxyStats
	// OriginResolved counts requests the origin server answered.
	OriginResolved uint64
	// Delivered counts engine message deliveries (zero on the agents
	// runtime, which does not track a global delivery counter). Progress
	// displays use it to report events/sec.
	Delivered uint64
	// Dropped counts messages the engine discarded — fault-plan losses
	// and deliveries addressed to crashed proxies. Every drop in a run
	// without retransmission is an undelivered in-flight message whose
	// chain is stranded. Virtual-time runtime only.
	Dropped uint64
	// Injected counts logical client requests; retransmissions of a
	// timed-out request count once. Completion is
	// Summary.Requests/Injected — exactly 1 in lossless runs, below 1
	// when loss strands or abandons chains.
	Injected   uint64
	Completion float64
	// LeakedPending is the total of unretired loop-detection pending
	// entries across ADC proxies at run end — the leaked state a lost
	// reply leaves behind. Recovery's TTL drains it to zero.
	LeakedPending int
	// MaxMeanShare and GiniShare are load-imbalance statistics over the
	// per-proxy request counts: how much hotter the busiest proxy runs
	// than the average one (1.0 = perfectly even) and the Gini
	// coefficient of the load distribution (0 = even, → 1 = one proxy
	// takes everything). Backwarding's single-location convergence shows
	// up here directly under Zipf traffic; the replication controller's
	// job is to push both toward their even-spread ends.
	MaxMeanShare float64
	GiniShare    float64
	// PeakWindowShare and PeakWindowRequests are the windowed versions of
	// the load-imbalance statistics, computed from the per-proxy request
	// deltas between consecutive time-series buckets (zero unless
	// Config.MetricsEvery > 0). PeakWindowShare is the worst single-window
	// max/mean ratio; PeakWindowRequests is the reception count at the
	// hottest proxy in its worst window. Run-total spread hides transient
	// hotspots — after a popularity shift, the new head object's single
	// home absorbs every peer's forwards until the frequency filters
	// re-admit it elsewhere, then the peak rotates to another proxy at
	// the next shift — so only windowed statistics see the concentration
	// replication is built to remove.
	PeakWindowShare    float64
	PeakWindowRequests uint64
	// Buckets is the virtual-time-windowed metrics series (empty unless
	// Config.MetricsEvery > 0).
	Buckets []metrics.Bucket
	// Faults holds the fault-injection counters (zero without a plan).
	Faults sim.FaultStats
	// Algorithm echoes the scheme that produced the result.
	Algorithm Algorithm
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// Driver is the client-side interface the cluster works against; both the
// closed-loop sim.Client and the open-loop sim.OpenLoopClient satisfy it.
type Driver interface {
	sim.Node
	Collector() *metrics.Collector
	Done() bool
	SetOnDone(fn func())
	Injected() uint64
}

var (
	_ Driver = (*sim.Client)(nil)
	_ Driver = (*sim.OpenLoopClient)(nil)
)

// Cluster is a fully wired proxy system ready to run once.
type Cluster struct {
	cfg     Config
	nodes   []sim.Node
	clients []Driver
	origin  *sim.Origin

	adcProxies   []*proxy.ADC
	carpProxies  []*carp.Proxy
	hierProxies  []*hierarchy.Proxy
	coordNode    *coordinator.Coordinator
	coordWorkers []*coordinator.Worker

	// churn intercepts the request stream to apply proxy joins.
	churn *churnSource

	// ts is the shared time-series recorder (nil unless MetricsEvery > 0).
	ts *metrics.TimeSeries
}

// New builds the cluster for cfg, with src as the request stream.
func New(cfg Config, src workload.Source) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("cluster: workload source must not be nil")
	}
	if cfg.Clients == 0 {
		cfg.Clients = 1
	}
	if cfg.Window == 0 {
		cfg.Window = metrics.DefaultWindow
	}
	cfg.Recovery = cfg.Recovery.Normalize()
	cfg.Replication = cfg.Replication.Normalize()

	c := &Cluster{cfg: cfg}

	proxyIDs := make([]ids.NodeID, cfg.NumProxies)
	for i := range proxyIDs {
		proxyIDs[i] = ids.NodeID(i)
	}
	// entryIDs is what clients address; most schemes accept requests on
	// any proxy, the coordinator scheme funnels everything through the
	// dispatcher.
	entryIDs := proxyIDs

	switch cfg.Algorithm {
	case ADC:
		for _, id := range proxyIDs {
			p, err := proxy.New(proxy.Config{
				ID:          id,
				Peers:       proxyIDs,
				Tables:      cfg.Tables,
				Seed:        cfg.Seed,
				Recovery:    cfg.Recovery,
				Replication: cfg.Replication,
			})
			if err != nil {
				return nil, err
			}
			c.adcProxies = append(c.adcProxies, p)
			c.nodes = append(c.nodes, p)
		}
	case CARP, CHash:
		var assigner carp.Assigner
		if cfg.Algorithm == CARP {
			assigner = carp.NewHasher(proxyIDs)
		} else {
			ring, err := chash.NewRing(proxyIDs, 0)
			if err != nil {
				return nil, err
			}
			assigner = ring
		}
		for _, id := range proxyIDs {
			p, err := carp.New(carp.Config{
				ID:        id,
				Hasher:    assigner,
				CacheSize: cfg.Tables.CachingSize,
			})
			if err != nil {
				return nil, err
			}
			c.carpProxies = append(c.carpProxies, p)
			c.nodes = append(c.nodes, p)
		}
	case Hierarchical:
		rootID := ids.NodeID(cfg.NumProxies)
		for _, id := range proxyIDs {
			p, err := hierarchy.New(hierarchy.Config{
				ID:        id,
				Role:      hierarchy.Leaf,
				Parent:    rootID,
				CacheSize: cfg.Tables.CachingSize,
			})
			if err != nil {
				return nil, err
			}
			c.hierProxies = append(c.hierProxies, p)
			c.nodes = append(c.nodes, p)
		}
		root, err := hierarchy.New(hierarchy.Config{
			ID:        rootID,
			Role:      hierarchy.Root,
			CacheSize: cfg.Tables.CachingSize,
		})
		if err != nil {
			return nil, err
		}
		c.hierProxies = append(c.hierProxies, root)
		c.nodes = append(c.nodes, root)
	case Coordinator:
		coordID := ids.NodeID(cfg.NumProxies)
		for _, id := range proxyIDs {
			w, err := coordinator.NewWorker(id, cfg.Tables.CachingSize)
			if err != nil {
				return nil, err
			}
			c.coordWorkers = append(c.coordWorkers, w)
			c.nodes = append(c.nodes, w)
		}
		co, err := coordinator.NewCoordinator(coordID, proxyIDs)
		if err != nil {
			return nil, err
		}
		c.coordNode = co
		c.nodes = append(c.nodes, co)
		entryIDs = []ids.NodeID{coordID}
	}

	c.origin = sim.NewOrigin()
	c.nodes = append(c.nodes, c.origin)

	if len(cfg.JoinProxyAt) > 0 {
		c.churn = &churnSource{inner: src, atReqs: cfg.JoinProxyAt}
		src = c.churn
	}

	sources, err := splitSource(src, cfg.Clients)
	if err != nil {
		return nil, err
	}
	for i, s := range sources {
		copts := []metrics.Option{
			metrics.WithWindow(cfg.Window),
			metrics.WithSampleEvery(cfg.SampleEvery),
			metrics.WithExpectedRequests(uint64(s.Total())),
		}
		if cfg.ResponseBuckets > 0 {
			width := cfg.ResponseBucketTicks
			if width == 0 {
				width = 500
			}
			copts = append(copts, metrics.WithResponseHistogram(cfg.ResponseBuckets, width))
		}
		collector := metrics.NewCollector(copts...)
		var (
			cl  Driver
			err error
		)
		if cfg.OpenLoopInterval > 0 {
			cl, err = sim.NewOpenLoopClient(sim.OpenLoopConfig{
				Index:         i,
				Source:        s,
				Proxies:       entryIDs,
				Policy:        cfg.EntryPolicy,
				Seed:          cfg.Seed + int64(i)*104729,
				Collector:     collector,
				MaxHops:       cfg.MaxHops,
				IntervalTicks: cfg.OpenLoopInterval,
				Poisson:       cfg.Poisson,
				Recovery:      cfg.Recovery,
			})
		} else {
			cl, err = sim.NewClient(sim.ClientConfig{
				Index:     i,
				Source:    s,
				Proxies:   entryIDs,
				Policy:    cfg.EntryPolicy,
				Seed:      cfg.Seed + int64(i)*104729,
				Collector: collector,
				MaxHops:   cfg.MaxHops,
				Recovery:  cfg.Recovery,
			})
		}
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, cl)
		c.nodes = append(c.nodes, cl)
	}

	if cfg.MetricsEvery > 0 {
		c.ts = metrics.NewTimeSeries(cfg.MetricsEvery)
		c.ts.SetOnRoll(c.snapshotOccupancy)
	}
	if cfg.Tracer != nil || c.ts != nil {
		c.wireObservability(cfg.Tracer)
	}
	return c, nil
}

// wireObservability hands the tracer and time-series recorder to every node
// that emits into them. A nil tracer with a live recorder is valid: only
// the windowed counters are collected then.
func (c *Cluster) wireObservability(tr *obs.Tracer) {
	for _, p := range c.adcProxies {
		p.SetTracer(tr)
	}
	for _, p := range c.carpProxies {
		p.SetTracer(tr)
	}
	c.origin.SetTracer(tr)
	for _, cl := range c.clients {
		switch t := cl.(type) {
		case *sim.Client:
			t.SetTracer(tr)
			t.SetTimeSeries(c.ts)
		case *sim.OpenLoopClient:
			t.SetTracer(tr)
			t.SetTimeSeries(c.ts)
		}
	}
}

// snapshotOccupancy fills a sealing bucket with per-proxy table sizes: the
// total mapping-table entries and the cached subset. It runs on the engine
// thread via TimeSeries.SetOnRoll.
func (c *Cluster) snapshotOccupancy(b *metrics.Bucket) {
	for _, p := range c.adcProxies {
		tb := p.Tables()
		b.Occupancy = append(b.Occupancy, tb.Len())
		b.Cached = append(b.Cached, tb.Caching().Len())
		b.ProxyRequests = append(b.ProxyRequests, p.Stats().Requests)
	}
	for _, p := range c.carpProxies {
		b.Occupancy = append(b.Occupancy, p.CacheLen())
		b.Cached = append(b.Cached, p.CacheLen())
		b.ProxyRequests = append(b.ProxyRequests, p.Stats().Requests)
	}
}

// splitSource partitions src round-robin into n streams. n == 1 passes the
// source through untouched (streaming); larger n drains it into memory.
func splitSource(src workload.Source, n int) ([]workload.Source, error) {
	if n == 1 {
		return []workload.Source{src}, nil
	}
	all := trace.Drain(src)
	parts := make([][]ids.ObjectID, n)
	for i := range parts {
		parts[i] = make([]ids.ObjectID, 0, (len(all)+n-1)/n)
	}
	for i, obj := range all {
		parts[i%n] = append(parts[i%n], obj)
	}
	out := make([]workload.Source, n)
	for i, p := range parts {
		out[i] = trace.NewSliceSource(p)
	}
	return out, nil
}

// ADCProxies exposes the ADC agents (nil for hashing runs).
func (c *Cluster) ADCProxies() []*proxy.ADC { return c.adcProxies }

// CARPProxies exposes the hashing agents (nil for ADC runs).
func (c *Cluster) CARPProxies() []*carp.Proxy { return c.carpProxies }

// HierarchyProxies exposes the tree nodes (leaves then root; nil unless
// the algorithm is Hierarchical).
func (c *Cluster) HierarchyProxies() []*hierarchy.Proxy { return c.hierProxies }

// CoordinatorNodes exposes the dispatcher and its workers (nil unless the
// algorithm is Coordinator).
func (c *Cluster) CoordinatorNodes() (*coordinator.Coordinator, []*coordinator.Worker) {
	return c.coordNode, c.coordWorkers
}

// Origin exposes the origin server node.
func (c *Cluster) Origin() *sim.Origin { return c.origin }

// Clients exposes the client drivers.
func (c *Cluster) Clients() []Driver { return c.clients }

// Run executes the workload to completion and returns the merged result.
// A cluster is single-shot: build a fresh one per run.
func (c *Cluster) Run() (*Result, error) {
	start := time.Now()
	var (
		delivered  uint64
		dropped    uint64
		faultStats sim.FaultStats
	)
	switch c.cfg.Runtime {
	case RuntimeSequential:
		eng := sim.NewEngine()
		for _, n := range c.nodes {
			if err := eng.Register(n); err != nil {
				return nil, err
			}
		}
		if c.churn != nil {
			c.churn.onJoin = func() error { return c.addProxy(eng.Register) }
		}
		if err := eng.Run(); err != nil {
			return nil, err
		}
		if c.churn != nil && c.churn.err != nil {
			return nil, c.churn.err
		}
		delivered = eng.Delivered()
	case RuntimeVirtualTime:
		latency := c.cfg.Latency
		if latency == (sim.LatencyModel{}) {
			latency = sim.DefaultLatencyModel()
		}
		span := c.cfg.NumProxies
		if c.cfg.Algorithm == Hierarchical || c.cfg.Algorithm == Coordinator {
			span++ // the root/dispatcher occupies NodeID(NumProxies)
		}
		part, err := ids.NewShardMap(max(c.cfg.Shards, 1), span)
		if err != nil {
			return nil, err
		}
		eng := sim.NewShardedVEngine(latency, part)
		for _, n := range c.nodes {
			if err := eng.Register(n); err != nil {
				return nil, err
			}
		}
		if c.churn != nil {
			// A join registers a node and rewrites every proxy's peer set
			// from inside the client's handler, so no other handler (a
			// recovery sweep timer at the same tick) may run beside it.
			eng.Serialize()
			c.churn.onJoin = func() error { return c.addProxy(eng.Register) }
		}
		if err := eng.SetFaultPlan(c.cfg.faultPlan()); err != nil {
			return nil, err
		}
		eng.SetTracer(c.cfg.Tracer)
		eng.SetTimeSeries(c.ts)
		if err := eng.Run(); err != nil {
			return nil, err
		}
		if c.churn != nil && c.churn.err != nil {
			return nil, c.churn.err
		}
		c.ts.Finish(eng.VNow())
		delivered = eng.Delivered()
		dropped = eng.Dropped()
		faultStats = eng.FaultStats()
	case RuntimeAgents:
		d, err := c.runConcurrent()
		if err != nil {
			return nil, err
		}
		dropped = d
	default:
		return nil, fmt.Errorf("cluster: unknown runtime %d", int(c.cfg.Runtime))
	}
	elapsed := time.Since(start)

	for _, cl := range c.clients {
		if !cl.Done() {
			// Under fault injection an unfinished trace is a measured
			// outcome (stranded chains show up in Completion), not an
			// execution error.
			if !c.cfg.faultsActive() {
				return nil, fmt.Errorf("cluster: client %v did not finish its trace", cl.ID())
			}
			break
		}
	}
	res := c.collect(elapsed)
	res.Delivered = delivered
	res.Dropped = dropped
	res.Faults = faultStats
	return res, nil
}

// runConcurrent executes on the goroutine runtime, terminating when every
// client has consumed its trace. It returns the runtime's dropped-message
// count: sends to unregistered destinations, which previously died inside
// the runtime and never reached Result — a silent wiring failure in pooled
// sweeps.
func (c *Cluster) runConcurrent() (uint64, error) {
	rt := agent.New(0)

	// Completion signalling: all clients done → close(done).
	done := make(chan struct{})
	var once sync.Once
	remaining := int64(len(c.clients))
	var mu sync.Mutex

	for _, n := range c.nodes {
		if err := rt.Register(n); err != nil {
			return 0, err
		}
	}
	for _, cl := range c.clients {
		cl.SetOnDone(func() {
			mu.Lock()
			remaining--
			last := remaining == 0
			mu.Unlock()
			if last {
				once.Do(func() { close(done) })
			}
		})
	}
	rt.Run(done)
	return rt.Dropped(), nil
}

func (c *Cluster) collect(elapsed time.Duration) *Result {
	res := &Result{
		Algorithm: c.cfg.Algorithm,
		Elapsed:   elapsed,
	}
	var merged metrics.Summary
	var respHist *stats.Histogram
	for i, cl := range c.clients {
		s := cl.Collector().Summary()
		if h := cl.Collector().ResponseHistogram(); h != nil {
			// Merging into client 0's histogram is safe: collect runs
			// once, after the run is over.
			if respHist == nil {
				respHist = h
			} else {
				respHist.Merge(h)
			}
		}
		merged.Requests += s.Requests
		merged.Hits += s.Hits
		// Hops, PathLen and MeanResponse re-weight below.
		merged.Hops += s.Hops * float64(s.Requests)
		merged.PathLen += s.PathLen * float64(s.Requests)
		merged.MeanResponse += s.MeanResponse * float64(s.Requests)
		if s.MaxResponse > merged.MaxResponse {
			merged.MaxResponse = s.MaxResponse
		}
		merged.Timeouts += s.Timeouts
		merged.Retries += s.Retries
		merged.Abandoned += s.Abandoned
		merged.StaleReplies += s.StaleReplies
		res.Injected += cl.Injected()
		if i == 0 {
			res.Series = cl.Collector().Series()
		}
	}
	if merged.Requests > 0 {
		merged.HitRate = float64(merged.Hits) / float64(merged.Requests)
		merged.Hops /= float64(merged.Requests)
		merged.PathLen /= float64(merged.Requests)
		merged.MeanResponse /= float64(merged.Requests)
	}
	if respHist != nil {
		merged.P99Response = respHist.Quantile(0.99)
	}
	merged.Elapsed = elapsed
	res.Summary = merged

	if res.Injected > 0 {
		res.Completion = float64(merged.Requests) / float64(res.Injected)
	}

	for _, p := range c.adcProxies {
		res.ProxyStats = append(res.ProxyStats, p.Stats())
		res.LeakedPending += p.PendingLen()
	}
	for _, p := range c.carpProxies {
		res.ProxyStats = append(res.ProxyStats, p.Stats())
	}
	for _, p := range c.hierProxies {
		res.ProxyStats = append(res.ProxyStats, p.Stats())
	}
	for _, w := range c.coordWorkers {
		res.ProxyStats = append(res.ProxyStats, w.Stats())
	}
	if c.coordNode != nil {
		res.ProxyStats = append(res.ProxyStats, c.coordNode.Stats())
	}
	if len(res.ProxyStats) > 0 {
		shares := make([]float64, len(res.ProxyStats))
		for i, s := range res.ProxyStats {
			shares[i] = float64(s.Requests)
		}
		res.MaxMeanShare, _ = stats.MaxMeanRatio(shares)
		res.GiniShare, _ = stats.Gini(shares)
	}
	res.OriginResolved = c.origin.Resolved()
	res.Buckets = c.ts.Buckets()
	res.PeakWindowShare, res.PeakWindowRequests = peakWindowLoad(res.Buckets)
	return res
}

// MeanWindowLoad derives warmup-aware windowed load statistics from the
// time-series buckets: the average over windows of the per-window max/mean
// reception ratio, and the average per-window reception count at the
// hottest proxy. The first skipWindows sealed buckets are excluded — cold
// caches make every configuration behave identically during warmup, so
// including it only dilutes differences (standard cache-experiment
// methodology). Averaging over windows, instead of taking the single worst
// window as Result.PeakWindowShare does, trades sensitivity for robustness:
// a max is an extreme-value statistic and noisy run-to-run, while the mean
// is stable enough for benchmark regression gates.
func MeanWindowLoad(buckets []metrics.Bucket, skipWindows int) (share, peak float64) {
	var prev []uint64
	var n int
	for i, b := range buckets {
		cur := b.ProxyRequests
		if len(cur) == 0 {
			continue
		}
		if i >= skipWindows {
			deltas := make([]float64, len(cur))
			var total, mx float64
			for j, c := range cur {
				d := c
				if j < len(prev) {
					d -= prev[j]
				}
				deltas[j] = float64(d)
				total += deltas[j]
				if deltas[j] > mx {
					mx = deltas[j]
				}
			}
			if total > 0 {
				mm, _ := stats.MaxMeanRatio(deltas)
				share += mm
				peak += mx
				n++
			}
		}
		prev = cur
	}
	if n > 0 {
		share /= float64(n)
		peak /= float64(n)
	}
	return share, peak
}

// peakWindowLoad derives the windowed load-imbalance statistics from the
// per-proxy cumulative request snapshots in the time-series buckets: the
// worst single-window max/mean ratio and the hottest proxy's reception
// count in its worst window. Buckets missing snapshots (MetricsEvery off,
// or non-ADC/CARP topologies) yield zeros. Proxies that join mid-run only
// lengthen the snapshot vector, so indexes stay aligned across buckets.
func peakWindowLoad(buckets []metrics.Bucket) (share float64, peak uint64) {
	var prev []uint64
	for _, b := range buckets {
		cur := b.ProxyRequests
		if len(cur) == 0 {
			continue
		}
		deltas := make([]float64, len(cur))
		var total float64
		for i, c := range cur {
			d := c
			if i < len(prev) {
				d -= prev[i]
			}
			if d > peak {
				peak = d
			}
			deltas[i] = float64(d)
			total += deltas[i]
		}
		if total > 0 {
			if mm, err := stats.MaxMeanRatio(deltas); err == nil && mm > share {
				share = mm
			}
		}
		prev = cur
	}
	return share, peak
}

// Run builds and runs a cluster in one call.
func Run(cfg Config, src workload.Source) (*Result, error) {
	c, err := New(cfg, src)
	if err != nil {
		return nil, err
	}
	return c.Run()
}
