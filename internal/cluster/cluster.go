// Package cluster wires complete proxy systems — N proxy agents, an origin
// server and closed- or open-loop client drivers — and runs a workload
// against them on the deterministic engine sim.VEngine, with zero link
// costs (RuntimeSequential) or a latency model (RuntimeVirtualTime). It is
// the programmatic equivalent
// of the paper's experimental testbed (§V.1) and the layer the public API
// and the benchmark harness sit on.
package cluster

import (
	"fmt"
	"time"

	"github.com/adc-sim/adc/internal/carp"
	"github.com/adc-sim/adc/internal/chash"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/lru"
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

// Runtime selects the latency preset the one engine (sim.VEngine) runs
// under.
type Runtime int

// Supported runtimes.
const (
	// RuntimeSequential runs under the zero LatencyModel: every event is
	// due at time 0, so messages are delivered in the order they were
	// sent (FIFO) and Config.Latency is ignored.
	RuntimeSequential Runtime = iota
	// RuntimeVirtualTime delays every transfer by Config.Latency, yielding
	// response-time metrics and supporting open-loop (fixed request rate)
	// injection, fault injection, recovery and windowed time series.
	RuntimeVirtualTime
)

// String implements fmt.Stringer.
func (r Runtime) String() string {
	switch r {
	case RuntimeSequential:
		return "sequential"
	case RuntimeVirtualTime:
		return "vtime"
	default:
		return fmt.Sprintf("Runtime(%d)", int(r))
	}
}

// ParseRuntime converts a runtime name ("sequential", "vtime") to
// its Runtime; the empty string selects the default and "virtual" is an
// alias for "vtime".
func ParseRuntime(name string) (Runtime, error) {
	switch name {
	case "", "sequential":
		return RuntimeSequential, nil
	case "vtime", "virtual":
		return RuntimeVirtualTime, nil
	default:
		return 0, fmt.Errorf("cluster: unknown runtime %q (want sequential or vtime)", name)
	}
}

// Config describes one simulation run. The zero value is not runnable; use
// the With* helpers in the public package or fill the fields directly.
type Config struct {
	// Algorithm selects the caching scheme.
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

	// Clients is the number of request drivers (default 1; the trace is
	// split round-robin between them), closed loop unless
	// OpenLoopInterval is set.
	Clients int

	// Window is the moving-average window (default 5000, §V.2.1) of
	// client 0's series.
	Window int

	// SampleEvery records one time-series point per n requests of
	// client 0, the only client that samples (0 disables series
	// collection; summaries are always available).
	SampleEvery uint64

	// Runtime selects the zero-cost (sequential) or the virtual-time
	// latency preset.
	Runtime Runtime

	// Latency is the virtual-time latency model; the zero value selects
	// sim.DefaultLatencyModel(). Used by RuntimeVirtualTime only.
	Latency sim.LatencyModel

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
	// jitter, scheduled fail-stop crashes — into the run (sim.ParseFaultSpec
	// reads one from a spec string; a zero Seed takes the run's Seed).
	// Requires RuntimeVirtualTime; nil keeps the paper's lossless transport
	// and leaves every code path byte-identical to a fault-free build.
	Faults *sim.FaultPlan

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
	// clients, proxies, the origin, and the engine's drop paths; nil
	// keeps every hot path on its single-branch disabled guard.
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
	if c.Runtime != RuntimeSequential && c.Runtime != RuntimeVirtualTime {
		return fmt.Errorf("cluster: unknown runtime %d", int(c.Runtime))
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

// latency is the model the run's engine prices transfers with: the zero
// model under RuntimeSequential, Latency or its default otherwise.
func (c Config) latency() sim.LatencyModel {
	switch {
	case c.Runtime == RuntimeSequential:
		return sim.LatencyModel{}
	case c.Latency == (sim.LatencyModel{}):
		return sim.DefaultLatencyModel()
	}
	return c.Latency
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
	// Delivered counts engine message deliveries. Progress displays use
	// it to report events/sec.
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
	// entries across all proxies at run end — the leaked state a lost
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

// Cluster is a fully wired proxy system ready to run once.
type Cluster struct {
	cfg     Config
	nodes   []sim.Node
	clients []*sim.Client
	origin  *sim.Origin

	// proxies are the proxy nodes, node i with ID i: the N array members,
	// then the hierarchy's root or the coordinator's dispatcher.
	proxies []*proxy.ADC

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
	policies, err := cfg.policies(proxyIDs)
	if err != nil {
		return nil, err
	}
	for i, pol := range policies {
		p, err := proxy.New(proxy.Config{ID: ids.NodeID(i), Policy: pol, Recovery: cfg.Recovery})
		if err != nil {
			return nil, err
		}
		c.proxies = append(c.proxies, p)
		c.nodes = append(c.nodes, p)
	}
	// entryIDs is what clients address; most schemes accept requests on
	// any proxy, the coordinator scheme funnels everything through the
	// dispatcher.
	entryIDs := proxyIDs
	if cfg.Algorithm == Coordinator {
		entryIDs = []ids.NodeID{ids.NodeID(cfg.NumProxies)}
	}

	c.origin = sim.NewOrigin()
	c.nodes = append(c.nodes, c.origin)

	sources, err := splitSource(src, cfg.Clients, c.prefetch)
	if err != nil {
		return nil, err
	}
	if len(cfg.JoinProxyAt) > 0 {
		// Churn runs have one client (validateChurn). The join counter
		// wraps the split stream, so a lookahead peek never counts.
		c.churn = &churnSource{inner: sources[0], atReqs: cfg.JoinProxyAt}
		sources[0] = c.churn
	}
	for i, s := range sources {
		// Result.Series is client 0's, so only client 0 samples and
		// pays for the moving-average windows.
		copts := []metrics.Option{metrics.WithSampleEvery(0)}
		if i == 0 {
			copts = []metrics.Option{
				metrics.WithWindow(cfg.Window),
				metrics.WithSampleEvery(cfg.SampleEvery),
				metrics.WithExpectedRequests(uint64(s.Total())),
			}
		}
		if cfg.ResponseBuckets > 0 {
			width := cfg.ResponseBucketTicks
			if width == 0 {
				width = 500
			}
			copts = append(copts, metrics.WithResponseHistogram(cfg.ResponseBuckets, width))
		}
		cl, err := sim.NewClient(sim.ClientConfig{
			Index:         i,
			Source:        s,
			Proxies:       entryIDs,
			Policy:        cfg.EntryPolicy,
			Seed:          cfg.Seed + int64(i)*104729,
			Collector:     metrics.NewCollector(copts...),
			MaxHops:       cfg.MaxHops,
			Recovery:      cfg.Recovery,
			IntervalTicks: cfg.OpenLoopInterval,
			Poisson:       cfg.Poisson,
		})
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

// policies builds one placement policy per proxy node, node i's at index i:
// the array members, then the hierarchy's shared root or the coordinator's
// dispatcher at NodeID(len(members)).
func (cfg Config) policies(members []ids.NodeID) ([]protocol.Policy, error) {
	size := cfg.Tables.CachingSize
	extra := ids.NodeID(len(members))
	var out []protocol.Policy
	addLRU := func(id ids.NodeID, assign carp.Assigner, next ids.NodeID) error {
		p, err := lru.NewPolicy(id, size, assign, next)
		if err != nil {
			return err
		}
		out = append(out, p)
		return nil
	}
	switch cfg.Algorithm {
	case ADC:
		for _, id := range members {
			a, err := cfg.agent(id, members)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
	case CARP, CHash:
		var assign carp.Assigner
		if cfg.Algorithm == CARP {
			assign = carp.NewHasher(members)
		} else {
			ring, err := chash.NewRing(members, 0)
			if err != nil {
				return nil, err
			}
			assign = ring
		}
		for _, id := range members {
			if err := addLRU(id, assign, ids.Origin); err != nil {
				return nil, err
			}
		}
	case Hierarchical:
		for _, id := range members {
			if err := addLRU(id, nil, extra); err != nil {
				return nil, err
			}
		}
		if err := addLRU(extra, nil, ids.Origin); err != nil {
			return nil, err
		}
	case Coordinator:
		for _, id := range members {
			if err := addLRU(id, nil, ids.Origin); err != nil {
				return nil, err
			}
		}
		rr, err := protocol.NewRoundRobin(members)
		if err != nil {
			return nil, err
		}
		out = append(out, rr)
	}
	return out, nil
}

// agent builds ADC proxy id's protocol agent over the given peer set.
func (cfg Config) agent(id ids.NodeID, peers []ids.NodeID) (*protocol.Agent, error) {
	return protocol.New(protocol.Config{
		ID:          id,
		Peers:       peers,
		Tables:      cfg.Tables,
		Seed:        cfg.Seed,
		Replication: cfg.Replication,
	})
}

// wireObservability hands the tracer and time-series recorder to every node
// that emits into them. A nil tracer with a live recorder is valid: only
// the windowed counters are collected then.
func (c *Cluster) wireObservability(tr *obs.Tracer) {
	for _, p := range c.proxies {
		p.SetTracer(tr)
	}
	c.origin.SetTracer(tr)
	for _, cl := range c.clients {
		cl.SetTracer(tr)
		cl.SetTimeSeries(c.ts)
	}
}

// snapshotOccupancy fills a sealing bucket with per-proxy occupancy — the
// entries each policy holds and the cached subset — and request counts. It
// runs on the engine thread via TimeSeries.SetOnRoll.
func (c *Cluster) snapshotOccupancy(b *metrics.Bucket) {
	for _, p := range c.proxies {
		held, cached := p.Policy().Occupancy()
		b.Occupancy = append(b.Occupancy, held)
		b.Cached = append(b.Cached, cached)
		b.ProxyRequests = append(b.ProxyRequests, p.Stats().Requests)
	}
}

// splitSource partitions src round-robin into n streams: stream k replays
// requests k, k+n, k+2n, … of the whole stream. A slice-backed source
// (workload.SliceBacked) lends its slice; any other is drained into memory
// once, except that with n == 1 it is passed through untouched
// (streaming). Each in-memory stream hands the request after the one it
// returns to hint (see stridedSource.Next).
func splitSource(src workload.Source, n int, hint func(ids.ObjectID)) ([]workload.Source, error) {
	var all []ids.ObjectID
	lent := false
	if sb, ok := src.(workload.SliceBacked); ok {
		all, lent = sb.Rest()
	}
	if !lent {
		if n == 1 {
			return []workload.Source{src}, nil
		}
		all = trace.Drain(src)
	}
	out := make([]workload.Source, n)
	for k := range out {
		out[k] = &stridedSource{objs: all, pos: k, step: n, total: (len(all) - k + n - 1) / n, hint: hint}
	}
	return out, nil
}

// stridedSource replays every step-th request of a shared slice, starting
// at pos; total is how many that makes.
type stridedSource struct {
	objs             []ids.ObjectID
	pos, step, total int
	// hint receives the stream's next request early.
	hint func(ids.ObjectID)
}

// Next implements workload.Source. It also peeks at the request after the
// one it returns, without consuming it, and hands that to hint: by the
// time the client asks for it, the tables' lines for it may already be
// loaded.
func (s *stridedSource) Next() (ids.ObjectID, bool) {
	if s.pos >= len(s.objs) {
		return 0, false
	}
	obj := s.objs[s.pos]
	s.pos += s.step
	if s.pos < len(s.objs) {
		s.hint(s.objs[s.pos])
	}
	return obj, true
}

// Total implements workload.Source.
func (s *stridedSource) Total() int { return s.total }

// prefetch hands obj to every proxy's Prefetch, proxies joined by churn
// included: a request for obj is about to enter the cluster.
func (c *Cluster) prefetch(obj ids.ObjectID) {
	for _, p := range c.proxies {
		p.Prefetch(obj)
	}
}

// ADCProxies exposes every proxy node, in Result.ProxyStats order: the array
// members (joined proxies after them), then the hierarchy's root or the
// coordinator's dispatcher.
func (c *Cluster) ADCProxies() []*proxy.ADC { return c.proxies }

// Origin exposes the origin server node.
func (c *Cluster) Origin() *sim.Origin { return c.origin }

// Clients exposes the client drivers.
func (c *Cluster) Clients() []*sim.Client { return c.clients }

// Run executes the workload to completion and returns the merged result.
// A cluster is single-shot: build a fresh one per run. Nothing reads the
// engine once Run returns, so Run releases it.
func (c *Cluster) Run() (*Result, error) {
	start := time.Now()
	eng := sim.NewVEngine(c.cfg.latency())
	defer eng.Release()
	for _, n := range c.nodes {
		if err := eng.Register(n); err != nil {
			return nil, err
		}
	}
	if c.churn != nil {
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
	elapsed := time.Since(start)

	for _, cl := range c.clients {
		if !cl.Done() {
			// Under fault injection an unfinished trace is a measured
			// outcome (stranded chains show up in Completion), not an
			// execution error.
			if c.cfg.Faults == nil {
				return nil, fmt.Errorf("cluster: client %v did not finish its trace", cl.ID())
			}
			break
		}
	}
	res := c.collect(elapsed)
	res.Delivered = eng.Delivered()
	res.Dropped = eng.Dropped()
	res.Faults = eng.FaultStats()
	return res, nil
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

	for _, p := range c.proxies {
		res.ProxyStats = append(res.ProxyStats, p.Stats())
		res.LeakedPending += p.PendingLen()
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
	n := 0
	windowLoads(buckets, skipWindows, func(mm float64, mx uint64) {
		share += mm
		peak += float64(mx)
		n++
	})
	if n > 0 {
		share /= float64(n)
		peak /= float64(n)
	}
	return share, peak
}

// peakWindowLoad derives the windowed load-imbalance statistics from the
// per-proxy cumulative request snapshots in the time-series buckets: the
// worst single-window max/mean ratio and the hottest proxy's reception
// count in its worst window. Without buckets (MetricsEvery off) both are
// zero.
func peakWindowLoad(buckets []metrics.Bucket) (share float64, peak uint64) {
	windowLoads(buckets, 0, func(mm float64, mx uint64) {
		share = max(share, mm)
		peak = max(peak, mx)
	})
	return share, peak
}

// windowLoads calls f for each window from bucket skip on in which the
// proxies received requests, with the window's max/mean reception ratio and
// the hottest proxy's reception count. A window's receptions are the
// differences of consecutive buckets' cumulative per-proxy snapshots; a
// bucket without a snapshot is passed over. Proxies that join mid-run only
// lengthen the snapshot vector, so indexes stay aligned across buckets.
func windowLoads(buckets []metrics.Bucket, skip int, f func(share float64, peak uint64)) {
	var prev []uint64
	var deltas []float64
	for i, b := range buckets {
		cur := b.ProxyRequests
		if len(cur) == 0 {
			continue
		}
		if i >= skip {
			deltas = deltas[:0]
			var total float64
			var mx uint64
			for j, c := range cur {
				d := c
				if j < len(prev) {
					d -= prev[j]
				}
				deltas = append(deltas, float64(d))
				total += float64(d)
				mx = max(mx, d)
			}
			if total > 0 {
				mm, _ := stats.MaxMeanRatio(deltas) // errs only on no proxies
				f(mm, mx)
			}
		}
		prev = cur
	}
}

// Run builds and runs a cluster in one call. The Result holds counters
// only, so once it is built nothing reads the proxies again: Run releases
// them (proxy.ADC.Release) for the next run to reuse, which keeps a process
// that runs one experiment after another at one run's memory.
// (*Cluster).Run releases only the engine, since its caller may still
// inspect the tables.
func Run(cfg Config, src workload.Source) (*Result, error) {
	c, err := New(cfg, src)
	if err != nil {
		return nil, err
	}
	res, err := c.Run()
	for _, p := range c.proxies {
		p.Release()
	}
	return res, err
}
