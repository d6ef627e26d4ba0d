// Package adc is a faithful, self-contained reproduction of Adaptive
// Distributed Caching (Kaiser, Tsui, Liu — "A Study of the Performance and
// Parameter Sensitivity of Adaptive Distributed Caching", ICDCS 2003): a
// self-organizing distributed proxy cache in which every proxy is an
// autonomous agent that learns object locations from replies retracing the
// request path ("multicasting by backwarding"), keeps three bounded mapping
// tables (single, multiple, caching), and caches selectively by aged
// average request frequency.
//
// The package offers three levels of entry:
//
//   - Run executes one complete simulation — N proxy agents, an origin
//     server and a closed-loop client replaying a workload — and returns
//     hit-rate, hop and timing measurements. Algorithms: ADC, the CARP
//     hashing baseline the paper compares against, and a consistent-hashing
//     extension baseline. Runtimes: a deterministic sequential engine, one
//     goroutine per agent, or a discrete-event virtual-time engine.
//
//   - NewWorkload generates the paper's three-phase synthetic request
//     stream (fill, request-I, request-II = replay of request-I) with
//     Zipf-skewed popularity and one-timer pollution; SaveTrace/LoadTrace
//     persist streams for exact repetition.
//
//   - The Experiment functions (Compare, Sweep, MaxHopsSweep, the
//     Ablations) regenerate every figure of the paper's evaluation; see
//     EXPERIMENTS.md for the measured-vs-paper record.
//
// Everything is deterministic given a seed, uses only the standard
// library, and runs the paper's full 3.99 M-request setup in about a
// minute (Scale 1.0) or a 1/10-scale replica in seconds.
package adc

import (
	"fmt"
	"time"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/sim"
)

// Algorithm selects the distributed-caching scheme to simulate.
type Algorithm string

// Supported algorithms.
const (
	// ADC is the paper's Adaptive Distributed Caching.
	ADC Algorithm = "adc"
	// CARP is the paper's hashing baseline (§V.1.1, highest-random-
	// weight hashing with LRU caches and direct-to-client replies).
	CARP Algorithm = "carp"
	// CHash replaces CARP's hash with a consistent-hashing ring
	// (Karger et al.) — an extension baseline.
	CHash Algorithm = "chash"
	// Hierarchical is the classic parent/child caching-tree baseline:
	// N leaves share one root parent; every proxy on the reply path
	// caches with LRU. One extra node (the root) joins the array.
	Hierarchical Algorithm = "hier"
	// Coordinator is the authors' first-generation central-coordinator
	// baseline (paper §II.1): one content-blind dispatcher in front of
	// N LRU caches; every message passes through it.
	Coordinator Algorithm = "coord"
)

// EntryPolicy selects which proxy a client sends each request to.
type EntryPolicy string

// Supported entry policies.
const (
	// EntryRandom picks a uniformly random proxy per request (default).
	EntryRandom EntryPolicy = "random"
	// EntryRoundRobin cycles through the proxies.
	EntryRoundRobin EntryPolicy = "round-robin"
	// EntryFixed pins every request to proxy 0.
	EntryFixed EntryPolicy = "fixed"
)

// Runtime selects the execution substrate.
type Runtime string

// Supported runtimes. All three produce identical metrics under the
// default single-client closed loop (the paper's §V.1.2 equivalence).
const (
	// RuntimeSequential is the deterministic single-threaded engine.
	RuntimeSequential Runtime = "sequential"
	// RuntimeAgents runs one goroutine per node with channel mailboxes.
	RuntimeAgents Runtime = "agents"
	// RuntimeVirtualTime is the discrete-event engine: every transfer
	// is delayed by a latency model (Config.Latency), producing
	// response-time metrics; required for open-loop injection, faults,
	// recovery and tick-bucketed metrics. Config.Shards spreads it over
	// several cores with byte-identical results.
	RuntimeVirtualTime Runtime = "vtime"
)

// Latency models the virtual-time cost of each message transfer, in
// abstract ticks (the defaults read as microseconds: 5 ms client↔proxy,
// 10 ms proxy↔proxy, 50 ms proxy↔origin, 0.1 ms service).
type Latency struct {
	ClientProxy int64
	ProxyProxy  int64
	ProxyOrigin int64
	Service     int64
	// QueueService serializes the Service component per receiving node
	// (one message in service at a time), so overloaded proxies and the
	// origin build real backlogs instead of paying a flat per-message
	// cost. Requires RuntimeVirtualTime; uncontended messages cost the
	// same either way.
	QueueService bool
}

// TableBackend selects the ordered-table data structure.
type TableBackend string

// Supported backends.
const (
	// BackendBTree is a bounded block B-tree keyed by (Key, Object):
	// O(log n) search with block-local memmoves. Default — it is the
	// "more adapted data structure" the paper calls for in §V.3.3 and
	// produces byte-identical results to the others.
	BackendBTree TableBackend = "btree"
	// BackendSlice is a sorted slice with binary search (the paper's
	// own structure).
	BackendSlice TableBackend = "slice"
	// BackendList is the fully paper-faithful O(n) linked list, for
	// the Fig. 15 timing reproduction only.
	BackendList TableBackend = "list"
)

// Config describes one simulation. Zero fields take the paper's reference
// values where one exists (5 proxies, 20k/20k/10k tables — scaled only if
// you say so — unbounded hops, window 5000).
type Config struct {
	// Algorithm selects ADC (default), CARP or CHash.
	Algorithm Algorithm

	// Proxies is the array size. Default 5 (§V.2).
	Proxies int

	// SingleTable, MultipleTable and CachingTable size each proxy's
	// mapping tables in entries. Defaults 20000/20000/10000 (§V.2).
	// For CARP/CHash, CachingTable is the LRU cache size and the other
	// two are ignored.
	SingleTable   int
	MultipleTable int
	CachingTable  int

	// MaxHops bounds ADC's forwarding chain; 0 (default) is unbounded,
	// matching the paper.
	MaxHops int

	// Seed makes the run reproducible. Default 1.
	Seed int64

	// Entry selects the client's entry-proxy policy. Default random.
	Entry EntryPolicy

	// Clients is the number of closed-loop drivers. Default 1, which
	// is also what makes all runtimes deterministic and equivalent.
	Clients int

	// Window is the hit-rate moving-average window. Default 5000
	// (§V.2.1).
	Window int

	// SampleEvery records one time-series point per n completed
	// requests; 0 disables series collection.
	SampleEvery int

	// Runtime selects sequential (default), agents or vtime.
	Runtime Runtime

	// Backend selects the ordered-table implementation. Default btree.
	Backend TableBackend

	// SingleScan switches the single-table to the paper's O(n)
	// element-wise scan (timing studies only).
	SingleScan bool

	// CacheLRU replaces selective caching with cache-all-passing LRU
	// (the §III.4 comparison baseline; ablation studies only).
	CacheLRU bool

	// AgingOff disables the Fig. 4 aging rule (ablation studies only).
	AgingOff bool

	// LatencyModel sets the virtual-time link costs for
	// RuntimeVirtualTime; nil selects the default WAN model.
	LatencyModel *Latency

	// OpenLoopInterval switches clients to open-loop injection with
	// this mean inter-arrival time in virtual ticks (0 = closed loop;
	// requires RuntimeVirtualTime). Poisson selects exponential gaps.
	OpenLoopInterval int64
	Poisson          bool

	// JoinProxyAt grows the cluster by one fresh ADC proxy when the
	// request stream crosses each index (strictly increasing; requires
	// ADC, the sequential runtime and a single client). The newcomer
	// starts with empty tables and attracts load purely through
	// self-organization.
	JoinProxyAt []uint64

	// Faults injects deterministic failures — message loss, delay
	// jitter, fail-stop proxy crashes — into the run (requires
	// RuntimeVirtualTime). nil keeps the paper's lossless transport.
	Faults *FaultPlan

	// Recovery enables the timeout/retransmission/pending-TTL recovery
	// protocol, an extension beyond the paper's algorithm (requires
	// RuntimeVirtualTime). nil disables it; zero fields of a non-nil
	// Recovery take the reference defaults.
	Recovery *Recovery

	// Replication enables the hot-object replication controller, an
	// extension beyond the paper's algorithm (requires ADC): objects
	// that run hot at their holder get replicated to recent requesters,
	// forwarding spreads traffic across the holders, and cold copies
	// drop back to the stock single-location state. nil disables it;
	// zero fields of a non-nil Replication take the reference defaults.
	Replication *Replication

	// ResponseBuckets, when positive, tracks response times in a
	// histogram with that many buckets of ResponseBucketTicks virtual
	// ticks each (default 500), enabling Result.P99Response. Requires
	// RuntimeVirtualTime.
	ResponseBuckets     int
	ResponseBucketTicks int

	// Tracer records per-hop request-path events during the run
	// (requires the sequential or virtual-time runtime). nil disables
	// tracing at zero cost. See NewTracer.
	Tracer *Tracer

	// MetricsEvery collects windowed time-series metrics into
	// Result.Buckets every this many virtual ticks (requires
	// RuntimeVirtualTime; 0 disables).
	MetricsEvery int64

	// Shards is the worker-shard count for RuntimeVirtualTime; 0 and 1
	// are the sequential run. Results are byte-identical at every value,
	// with every feature.
	Shards int
}

// FaultPlan is a deterministic failure schedule. All randomness derives
// from the plan's own seed, so identical plans produce identical drops,
// delays and crashes on every run.
type FaultPlan struct {
	// Seed drives the plan's private random stream (default: the run's
	// Seed).
	Seed int64
	// Loss is the i.i.d. probability in [0, 1] that any network transfer
	// is discarded.
	Loss float64
	// Jitter adds a uniform random delay in [0, Jitter] virtual ticks to
	// every surviving transfer.
	Jitter int64
	// LinkLoss adds extra loss on specific directed proxy→proxy links.
	LinkLoss []LinkLoss
	// Crashes schedules fail-stop proxy failures (ADC only).
	Crashes []Crash
}

// LinkLoss is a per-directed-link loss rate between two proxies.
type LinkLoss struct {
	// FromProxy and ToProxy are 0-based proxy indices.
	FromProxy, ToProxy int
	// Rate is the loss probability in [0, 1] on this link.
	Rate float64
}

// Crash schedules one fail-stop proxy failure: the proxy drops all traffic
// from At until RestartAt (0 = stays down). LoseTables selects a cold
// restart with empty mapping tables; volatile request state is always lost.
type Crash struct {
	// Proxy is the 0-based index of the crashing proxy.
	Proxy int
	// At and RestartAt are virtual times in ticks.
	At, RestartAt int64
	// LoseTables rebuilds the mapping tables empty on restart.
	LoseTables bool
}

// Recovery parameterizes the opt-in recovery protocol. All durations are
// virtual ticks; zero fields take the reference defaults (400 ms timeout,
// 8 retries, backoff 2, 1 s pending TTL under the default latency model).
type Recovery struct {
	// Timeout is the client's first-attempt timeout.
	Timeout int64
	// MaxRetries bounds retransmissions per request before abandoning.
	MaxRetries int
	// Backoff multiplies the timeout after every retry (≥ 1).
	Backoff float64
	// PendingTTL expires proxy loop-detection entries whose reply never
	// came back.
	PendingTTL int64
}

// Replication parameterizes the opt-in hot-object replication controller.
// Zero fields take the reference defaults (threshold 32 hits, 3 replicas,
// window 1024 requests, drop below 1 hit/window).
type Replication struct {
	// HotThreshold is how many cache hits an object must collect within
	// one window before its holder starts pushing replicas.
	HotThreshold int
	// MaxReplicas bounds the advertised holders beyond the primary.
	MaxReplicas int
	// Window is the controller's decay period in received requests.
	Window int64
	// DropThreshold is the minimum window hit count that keeps a
	// replica copy alive across a window roll.
	DropThreshold int
}

// withDefaults fills unset fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = ADC
	}
	if c.Proxies == 0 {
		c.Proxies = 5
	}
	if c.SingleTable == 0 {
		c.SingleTable = 20_000
	}
	if c.MultipleTable == 0 {
		c.MultipleTable = 20_000
	}
	if c.CachingTable == 0 {
		c.CachingTable = 10_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Entry == "" {
		c.Entry = EntryRandom
	}
	if c.Clients == 0 {
		c.Clients = 1
	}
	if c.Window == 0 {
		c.Window = 5000
	}
	return c
}

// toInternal converts to the internal cluster configuration.
func (c Config) toInternal() (cluster.Config, error) {
	c = c.withDefaults()
	algo, err := cluster.ParseAlgorithm(string(c.Algorithm))
	if err != nil {
		return cluster.Config{}, err
	}
	var entry sim.EntryPolicy
	switch c.Entry {
	case EntryRandom:
		entry = sim.EntryRandom
	case EntryRoundRobin:
		entry = sim.EntryRoundRobin
	case EntryFixed:
		entry = sim.EntryFixed
	default:
		return cluster.Config{}, fmt.Errorf("adc: unknown entry policy %q", c.Entry)
	}
	rt, ok := cluster.ParseRuntime(string(c.Runtime))
	if !ok {
		return cluster.Config{}, fmt.Errorf("adc: unknown runtime %q (want sequential, agents or vtime)", c.Runtime)
	}
	var latency sim.LatencyModel
	if c.LatencyModel != nil {
		latency = sim.LatencyModel{
			ClientProxy:  c.LatencyModel.ClientProxy,
			ProxyProxy:   c.LatencyModel.ProxyProxy,
			ProxyOrigin:  c.LatencyModel.ProxyOrigin,
			Service:      c.LatencyModel.Service,
			QueueService: c.LatencyModel.QueueService,
		}
	}
	backend, ok := core.ParseBackend(string(c.Backend))
	if !ok {
		return cluster.Config{}, fmt.Errorf("adc: unknown backend %q (want btree, slice or list)", c.Backend)
	}
	var faults *sim.FaultPlan
	if c.Faults != nil {
		faults = &sim.FaultPlan{
			Seed:   c.Faults.Seed,
			Loss:   c.Faults.Loss,
			Jitter: c.Faults.Jitter,
		}
		if faults.Seed == 0 {
			faults.Seed = c.Seed
		}
		for _, l := range c.Faults.LinkLoss {
			faults.LinkLoss = append(faults.LinkLoss, sim.LinkLoss{
				From: ids.NodeID(l.FromProxy),
				To:   ids.NodeID(l.ToProxy),
				Rate: l.Rate,
			})
		}
		for _, cr := range c.Faults.Crashes {
			faults.Crashes = append(faults.Crashes, sim.Crash{
				Node:       ids.NodeID(cr.Proxy),
				At:         cr.At,
				RestartAt:  cr.RestartAt,
				LoseTables: cr.LoseTables,
			})
		}
	}
	var recovery sim.Recovery
	if c.Recovery != nil {
		recovery = sim.Recovery{
			Enabled:    true,
			Timeout:    c.Recovery.Timeout,
			MaxRetries: c.Recovery.MaxRetries,
			Backoff:    c.Recovery.Backoff,
			PendingTTL: c.Recovery.PendingTTL,
		}
	}
	var replication protocol.Replication
	if c.Replication != nil {
		replication = protocol.Replication{
			Enabled:       true,
			HotThreshold:  c.Replication.HotThreshold,
			MaxReplicas:   c.Replication.MaxReplicas,
			Window:        c.Replication.Window,
			DropThreshold: c.Replication.DropThreshold,
		}
	}
	return cluster.Config{
		Algorithm:  algo,
		NumProxies: c.Proxies,
		Tables: core.Config{
			SingleSize:    c.SingleTable,
			MultipleSize:  c.MultipleTable,
			CachingSize:   c.CachingTable,
			Backend:       backend,
			SingleScan:    c.SingleScan,
			CacheAdmitAll: c.CacheLRU,
			AgingOff:      c.AgingOff,
		},
		MaxHops:             c.MaxHops,
		Seed:                c.Seed,
		EntryPolicy:         entry,
		Clients:             c.Clients,
		Window:              c.Window,
		SampleEvery:         uint64(c.SampleEvery),
		Runtime:             rt,
		Latency:             latency,
		OpenLoopInterval:    c.OpenLoopInterval,
		Poisson:             c.Poisson,
		JoinProxyAt:         c.JoinProxyAt,
		Faults:              faults,
		Recovery:            recovery,
		Replication:         replication,
		Tracer:              c.Tracer,
		MetricsEvery:        c.MetricsEvery,
		ResponseBuckets:     c.ResponseBuckets,
		ResponseBucketTicks: c.ResponseBucketTicks,
		Shards:              c.Shards,
	}, nil
}

// Point is one time-series sample: windowed and cumulative hit rate and
// hops, keyed by completed requests.
type Point struct {
	Requests   uint64
	HitRate    float64
	CumHitRate float64
	Hops       float64
	CumHops    float64
}

// ProxyStats are one proxy's event counters after a run.
// ExpiredPending/StaleInvalidated/UnexpectedReplies belong to the recovery
// extension and stay zero in paper-faithful runs; Shed and CoalescedMisses
// belong to the HTTP farm's admission control and miss coalescing and stay
// zero in simulator runs; ReplicaPushes/ReplicaDrops/ReplicaHits belong to
// the hot-object replication extension and stay zero with replication off;
// RetriedFetches through HedgeWins belong to the HTTP farm's
// fault-tolerance layer and stay zero with health probing off.
type ProxyStats struct {
	Requests          uint64
	LocalHits         uint64
	ForwardLearned    uint64
	ForwardRandom     uint64
	ForwardOrigin     uint64
	LoopsDetected     uint64
	RepliesSeen       uint64
	CacheInsertions   uint64
	CacheEvictions    uint64
	ExpiredPending    uint64
	StaleInvalidated  uint64
	UnexpectedReplies uint64
	Shed              uint64
	CoalescedMisses   uint64
	ReplicaPushes     uint64
	ReplicaDrops      uint64
	ReplicaHits       uint64
	RetriedFetches    uint64
	FailoverOrigin    uint64
	BreakerDenied     uint64
	HedgedFetches     uint64
	HedgeWins         uint64
}

// Result is the outcome of one simulation.
type Result struct {
	// Requests and Hits count completed requests and proxy-cache hits.
	Requests uint64
	Hits     uint64
	// HitRate is Hits/Requests over the whole run.
	HitRate float64
	// Hops is the mean message transfers per request (§V.2.2).
	Hops float64
	// PathLen is the mean number of proxies on the forwarding path.
	PathLen float64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// MeanResponse and MaxResponse are virtual-time response times in
	// ticks; zero unless the run used RuntimeVirtualTime.
	MeanResponse float64
	MaxResponse  float64
	// P99Response is the 99th-percentile response time in ticks; zero
	// unless Config.ResponseBuckets was set.
	P99Response float64
	// MaxMeanShare and GiniShare measure how unevenly the request load
	// spread over the proxies: busiest proxy's load over the mean
	// (1.0 = even) and the Gini coefficient of the per-proxy request
	// counts (0 = even). Under Zipf traffic stock ADC concentrates load
	// on the head objects' holders; the replication extension exists to
	// pull these numbers down.
	MaxMeanShare float64
	GiniShare    float64
	// Series holds time-series samples when SampleEvery > 0.
	Series []Point
	// ProxyStats has one entry per proxy, indexed by proxy ID.
	ProxyStats []ProxyStats
	// OriginResolved counts requests the origin server had to answer.
	OriginResolved uint64

	// Fault/recovery observability. All of the following are zero in
	// lossless runs without recovery.
	//
	// Injected counts logical client requests (retransmissions count
	// once); Completion is Requests/Injected — below 1 when loss strands
	// or abandons chains.
	Injected   uint64
	Completion float64
	// Dropped counts messages the engine discarded: fault-plan losses
	// and deliveries addressed to crashed proxies — the run's
	// undelivered in-flight messages.
	Dropped uint64
	// LeakedPending is the total of unretired loop-detection pending
	// entries across ADC proxies at run end (0 with recovery enabled:
	// the TTL drains them).
	LeakedPending int
	// Timeouts/Retries/Abandoned/StaleReplies are the recovery
	// protocol's client-side counters; Abandoned counts permanently
	// stranded chains.
	Timeouts     uint64
	Retries      uint64
	Abandoned    uint64
	StaleReplies uint64
	// Crashes and Restarts count applied fail-stop transitions.
	Crashes  uint64
	Restarts uint64

	// Buckets holds windowed time-series metrics when Config.MetricsEvery
	// was set.
	Buckets []TimeBucket
}

// Run builds a cluster for cfg and replays src against it.
func Run(cfg Config, src Source) (*Result, error) {
	icfg, err := cfg.toInternal()
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("adc: workload source must not be nil")
	}
	res, err := cluster.Run(icfg, sourceAdapter{src})
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}

func convertResult(res *cluster.Result) *Result {
	out := &Result{
		Requests:       res.Summary.Requests,
		Hits:           res.Summary.Hits,
		HitRate:        res.Summary.HitRate,
		Hops:           res.Summary.Hops,
		PathLen:        res.Summary.PathLen,
		Elapsed:        res.Elapsed,
		MeanResponse:   res.Summary.MeanResponse,
		MaxResponse:    res.Summary.MaxResponse,
		P99Response:    res.Summary.P99Response,
		MaxMeanShare:   res.MaxMeanShare,
		GiniShare:      res.GiniShare,
		OriginResolved: res.OriginResolved,
		Injected:       res.Injected,
		Completion:     res.Completion,
		Dropped:        res.Dropped,
		LeakedPending:  res.LeakedPending,
		Timeouts:       res.Summary.Timeouts,
		Retries:        res.Summary.Retries,
		Abandoned:      res.Summary.Abandoned,
		StaleReplies:   res.Summary.StaleReplies,
		Crashes:        res.Faults.Crashes,
		Restarts:       res.Faults.Restarts,
	}
	for _, p := range res.Series {
		out.Series = append(out.Series, Point{
			Requests:   p.Requests,
			HitRate:    p.HitRate,
			CumHitRate: p.CumHitRate,
			Hops:       p.Hops,
			CumHops:    p.CumHops,
		})
	}
	for _, s := range res.ProxyStats {
		out.ProxyStats = append(out.ProxyStats, ProxyStats(s))
	}
	out.Buckets = convertBuckets(res.Buckets)
	return out
}
