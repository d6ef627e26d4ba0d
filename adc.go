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
//     extension baseline. Runtimes: a deterministic sequential engine or a
//     discrete-event virtual-time engine.
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
	"github.com/adc-sim/adc/internal/metrics"
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

// Supported runtimes. Both produce identical hits and hops under the
// default single-client closed loop.
const (
	// RuntimeSequential is the deterministic single-threaded engine.
	RuntimeSequential Runtime = "sequential"
	// RuntimeVirtualTime is the discrete-event engine: every transfer
	// is delayed by a latency model (Config.Latency), producing
	// response-time metrics; required for open-loop injection, faults,
	// recovery and tick-bucketed metrics. Config.Shards spreads it over
	// several cores with byte-identical results.
	RuntimeVirtualTime Runtime = "vtime"
)

// Latency models the virtual-time cost of each message transfer, in
// abstract ticks (the defaults read as microseconds: 5 ms client↔proxy,
// 10 ms proxy↔proxy, 50 ms proxy↔origin, 0.1 ms service). QueueService
// serializes the Service component per receiving node, so overloaded
// proxies and the origin build real backlogs.
type Latency = sim.LatencyModel

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
	// is also what makes both runtimes equivalent.
	Clients int

	// Window is the hit-rate moving-average window. Default 5000
	// (§V.2.1).
	Window int

	// SampleEvery records one time-series point per n completed
	// requests; 0 disables series collection.
	SampleEvery int

	// Runtime selects sequential (default) or vtime.
	Runtime Runtime

	// Backend selects the ordered-table implementation. Default btree.
	Backend TableBackend

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

	// Tracer records per-hop request-path events during the run. nil
	// disables tracing at zero cost. See NewTracer.
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

// FaultPlan is a deterministic failure schedule: the engine's own type. All
// randomness derives from the plan's Seed (0 = the run's Seed), so identical
// plans produce identical drops, delays and crashes on every run. Proxies
// are 0-based node indices; times are virtual ticks.
type FaultPlan = sim.FaultPlan

// LinkLoss is a per-directed-link loss rate between two proxies.
type LinkLoss = sim.LinkLoss

// Crash schedules one fail-stop proxy failure from At until RestartAt
// (0 = stays down); LoseTables selects a cold restart.
type Crash = sim.Crash

// ParseFaultSpec parses a -faults spec string of comma-separated clauses:
// loss=R, jitter=T, seed=N, link=F>T:R, kill=P@T, restart=P@T[!] (! = cold)
// and partition=A:B@T[+D], e.g. "loss=0.01,kill=p0@2s,restart=p0@4s!".
// Proxies read p3 or 3; times read as ticks or Go durations (5s ==
// 5000000). Run refuses partitions: only the HTTP farm plays them.
func ParseFaultSpec(spec string) (*FaultPlan, error) { return sim.ParseFaultSpec(spec) }

// ParseRecoverySpec parses a -recovery spec string, e.g.
// "timeout=400ms,retries=8,backoff=2,ttl=1s"; an empty spec selects the
// reference defaults.
func ParseRecoverySpec(spec string) (*Recovery, error) {
	r, err := sim.ParseRecoverySpec(spec)
	if err != nil {
		return nil, err
	}
	return &Recovery{Timeout: r.Timeout, MaxRetries: r.MaxRetries, Backoff: r.Backoff, PendingTTL: r.PendingTTL}, nil
}

// toSim converts the public pointer form to the engine's value form; nil is
// the disabled zero value.
func (r *Recovery) toSim() sim.Recovery {
	if r == nil {
		return sim.Recovery{}
	}
	return sim.Recovery{
		Enabled:    true,
		Timeout:    r.Timeout,
		MaxRetries: r.MaxRetries,
		Backoff:    r.Backoff,
		PendingTTL: r.PendingTTL,
	}
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
	entry, err := sim.ParseEntryPolicy(string(c.Entry))
	if err != nil {
		return cluster.Config{}, err
	}
	rt, err := cluster.ParseRuntime(string(c.Runtime))
	if err != nil {
		return cluster.Config{}, err
	}
	backend, err := core.ParseBackend(string(c.Backend))
	if err != nil {
		return cluster.Config{}, err
	}
	var latency sim.LatencyModel
	if c.LatencyModel != nil {
		latency = *c.LatencyModel
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
		Faults:              c.Faults,
		Recovery:            c.Recovery.toSim(),
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
type Point = metrics.Point

// ProxyStats are one proxy's event counters after a run.
// ExpiredPending/StaleInvalidated/UnexpectedReplies belong to the recovery
// extension and stay zero in paper-faithful runs; Shed and CoalescedMisses
// belong to the HTTP farm's admission control and miss coalescing and stay
// zero in simulator runs; ReplicaPushes/ReplicaDrops/ReplicaHits belong to
// the hot-object replication extension and stay zero with replication off;
// RetriedFetches through HedgeWins belong to the HTTP farm's
// fault-tolerance layer and stay zero with health probing off.
type ProxyStats = metrics.ProxyStats

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
	return &Result{
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
		Series:         res.Series,
		ProxyStats:     res.ProxyStats,
		Buckets:        convertBuckets(res.Buckets),
	}, nil
}
