package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/adc-sim/adc"
	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/stats"
	"github.com/adc-sim/adc/internal/trace"
)

// The paper's reference cluster (§V.2).
const (
	simProxies  = 5
	simSingle   = 20_000
	simMultiple = 20_000
	simCaching  = 10_000
	// Response histogram: 4000 buckets of 500 ticks cover 2 s of
	// simulated time, far above any lossless chain.
	simRespBuckets = 4000
	simRespWidth   = 500
)

// simSpec describes one simulator workload. The paper's full trace is
// 3,990,000 requests (≈10 s a pass here); the driver's 10 s runs need
// several passes for a median, so both streams are the paper's shape at
// about a quarter of its length — the table sizes, and so the per-request
// work, are the reference ones.
type simSpec struct {
	requests   int
	population int
	// clients > 1 selects open-loop Poisson injection.
	clients  int
	interval int64
	stream   func(requests, population int, seed int64) (adc.Source, error)
}

var simSpecs = map[string]simSpec{
	"sim_paper": {
		requests:   1_000_000,
		population: 10_000,
		clients:    1,
		stream: func(n, population int, seed int64) (adc.Source, error) {
			return adc.NewWorkload(adc.WorkloadConfig{
				Requests: n, Population: population, Alpha: 0.8,
				OneTimerProb: 0.3, FillFraction: 0.25, Seed: seed,
			})
		},
	},
	"sim_shift_open": {
		requests:   500_000,
		population: 10_000,
		clients:    64,
		interval:   2000,
		stream: func(n, population int, seed int64) (adc.Source, error) {
			return adc.NewShiftWorkload(adc.ShiftWorkloadConfig{
				Requests: n, Period: max(n/5, 1), Population: population,
				Alpha: 0.8, OneTimerProb: 0.3, Seed: seed,
			})
		},
	},
}

// scaled shrinks the stream and its hot set together, so a smoke-scale
// run keeps the workload's repeat structure.
func (s simSpec) scaled(scale float64) simSpec {
	s.requests = max(int(float64(s.requests)*scale), 100)
	s.population = max(int(float64(s.population)*scale), 10)
	return s
}

// config is the run as a user of the facade writes it.
func (s simSpec) config(seed int64) adc.Config {
	return adc.Config{
		Algorithm:           adc.ADC,
		Proxies:             simProxies,
		SingleTable:         simSingle,
		MultipleTable:       simMultiple,
		CachingTable:        simCaching,
		Seed:                seed,
		Clients:             s.clients,
		Runtime:             adc.RuntimeVirtualTime,
		OpenLoopInterval:    s.interval,
		Poisson:             s.interval > 0,
		ResponseBuckets:     simRespBuckets,
		ResponseBucketTicks: simRespWidth,
	}
}

// clusterConfig is the same run in internal/cluster's terms, which the
// traced pass needs to reach the nodes. runSimTraced checks that the two
// stay in step: a traced pass must reproduce the facade's exact results.
func (s simSpec) clusterConfig(seed int64) cluster.Config {
	return cluster.Config{
		Algorithm:  cluster.ADC,
		NumProxies: simProxies,
		Tables: core.Config{
			SingleSize: simSingle, MultipleSize: simMultiple, CachingSize: simCaching,
			Backend: core.BackendBTree,
		},
		Seed:                seed,
		EntryPolicy:         sim.EntryRandom,
		Clients:             s.clients,
		Window:              5000,
		Runtime:             cluster.RuntimeVirtualTime,
		OpenLoopInterval:    s.interval,
		Poisson:             s.interval > 0,
		ResponseBuckets:     simRespBuckets,
		ResponseBucketTicks: simRespWidth,
	}
}

// materialize drains the generated stream into memory: every pass then
// replays identical inputs, and generation cost shows in setup_s instead
// of hiding inside the measured passes.
func (s simSpec) materialize(requests int, seed int64) ([]uint64, error) {
	src, err := s.stream(requests, s.population, seed)
	if err != nil {
		return nil, err
	}
	objs := drain(src)
	if len(objs) != requests {
		return nil, fmt.Errorf("stream has %d requests, want %d", len(objs), requests)
	}
	return objs, nil
}

// drain reads a generated stream into memory.
func drain(src adc.Source) []uint64 {
	objs := make([]uint64, 0, src.Total())
	for {
		obj, ok := src.Next()
		if !ok {
			return objs
		}
		objs = append(objs, obj)
	}
}

// simOutcome is everything a simulation determines exactly: two passes
// over one stream, traced or not, must agree on every field.
type simOutcome struct {
	requests, hits    uint64
	hitRate, hops     float64
	meanResponse, p99 float64
	originResolved    uint64
	proxies           adc.ProxyStats
}

func outcomeOf(res *adc.Result) simOutcome {
	o := simOutcome{
		requests: res.Requests, hits: res.Hits, hitRate: res.HitRate, hops: res.Hops,
		meanResponse: res.MeanResponse, p99: res.P99Response, originResolved: res.OriginResolved,
	}
	var total metrics.ProxyStats
	for _, p := range res.ProxyStats {
		total.Add(metrics.ProxyStats(p))
	}
	o.proxies = adc.ProxyStats(total)
	return o
}

// simPass is one timed adc.Run over the materialized stream.
func simPass(cfg adc.Config, objs []uint64) (simOutcome, time.Duration, error) {
	start := time.Now()
	res, err := adc.Run(cfg, adc.NewSliceSource(objs))
	wall := time.Since(start)
	if err != nil {
		return simOutcome{}, 0, err
	}
	return outcomeOf(res), wall, nil
}

// simPasses repeats simPass until at least minPasses ran and seconds of
// measured time accumulated, checking that every pass repeats the first
// one exactly.
func simPasses(r *report, cfg adc.Config, objs []uint64, seconds float64, minPasses int) (simOutcome, []float64, error) {
	var first simOutcome
	var rates []float64
	var measured time.Duration
	for len(rates) < minPasses || measured.Seconds() < seconds {
		out, wall, err := simPass(cfg, objs)
		if err != nil {
			return simOutcome{}, nil, err
		}
		if len(rates) == 0 {
			first = out
		} else if out != first {
			r.fail(fmt.Sprintf("pass %d differs from pass 1: %+v vs %+v", len(rates)+1, out, first))
		}
		if out.requests != uint64(len(objs)) {
			r.fail(fmt.Sprintf("completed %d of %d requests", out.requests, len(objs)))
		}
		r.Attempted += len(objs)
		r.Failed += len(objs) - int(min(out.requests, uint64(len(objs))))
		rates = append(rates, float64(out.requests)/wall.Seconds())
		measured += wall
	}
	return first, rates, nil
}

// runSim measures one simulator workload end to end, tracing off.
func runSim(opt options, spec simSpec) (*report, error) {
	r := newReport()
	spec = spec.scaled(opt.scale)
	requests := spec.requests

	var objs []uint64
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		objs = nil
		runtime.GC()
		start := time.Now()
		var err error
		if objs, err = spec.materialize(requests, opt.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := checkSeedMatters(spec.materialize, opt.seed); err != nil {
		r.fail(err.Error())
	}

	out, rates, err := simPasses(r, spec.config(opt.seed), objs, opt.seconds, 3)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.Values["setup_s"] = median(setups)
	r.Values["req_per_s"] = median(rates)
	r.Values["latency_us"] = out.meanResponse
	r.Values["latency_p99_us"] = out.p99
	r.Values["hit_rate"] = out.hitRate
	r.Values["hops"] = out.hops
	r.Values["ok_share"] = ratio(float64(r.Attempted-r.Failed), float64(r.Attempted))
	r.Values["peak_rss_mb"] = rss
	r.note(fmt.Sprintf("%d passes of %d simulated requests, %.0f..%.0f req/s; simulated results identical on every pass",
		len(rates), requests, slices.Min(rates), slices.Max(rates)))
	return r, nil
}

// layerClock accumulates the time one class of node spent in Handle.
type layerClock struct {
	ns   int64
	msgs int64
}

// perMsg is the mean Handle time with the decorator's own share taken
// out: of the pair of clock reads around a Handle, about half a pair's
// cost falls inside the interval they measure.
func (c *layerClock) perMsg(clockNs float64) float64 {
	if c.msgs == 0 {
		return 0
	}
	return max(float64(c.ns)/float64(c.msgs)-clockNs/2, 0)
}

// timedNode is the timing decorator around a registered sim.Node: it
// charges each Handle to its layer's clock and, for sampled requests,
// records a span. It forwards everything unchanged, so a decorated run
// must produce the undecorated run's results.
type timedNode struct {
	sim.Node
	clk   *layerClock
	spans *spanLog
	name  string
}

func (n *timedNode) Handle(ctx sim.Context, m msg.Message) {
	// The request ID is read first: the handler owns m from here on and
	// may recycle it.
	req, sampled := n.spans.sampledSim(m)
	start := time.Now()
	n.Node.Handle(ctx, m)
	end := time.Now()
	n.clk.ns += int64(end.Sub(start))
	n.clk.msgs++
	if sampled {
		n.spans.add(span{name: n.name, node: int(n.ID()), req: req, start: start, end: end})
	}
}

// timedStarter decorates nodes that also inject traffic (the clients).
type timedStarter struct{ timedNode }

func (n *timedStarter) Start(ctx sim.Context) { n.Node.(sim.Starter).Start(ctx) }

// echoNode stands in for a proxy in the floor run: it resolves every
// request on arrival, so the engine's dispatch is all that is measured.
type echoNode struct{ id ids.NodeID }

func (e echoNode) ID() ids.NodeID { return e.id }

func (e echoNode) Handle(ctx sim.Context, m msg.Message) {
	req, ok := m.(*msg.Request)
	if !ok {
		return
	}
	rep := sim.Resolve(ctx, req)
	rep.FromOrigin = true
	rep.To, _ = rep.NextBackward()
	ctx.Send(rep)
}

// objectIDs converts a materialized stream to the internal ID type, once
// for all the passes that replay it through internal/cluster.
func objectIDs(objs []uint64) []ids.ObjectID {
	out := make([]ids.ObjectID, len(objs))
	for i, o := range objs {
		out[i] = ids.ObjectID(o)
	}
	return out
}

// tracedSim is what one decorated pass measured.
type tracedSim struct {
	out               simOutcome
	buildMs           float64
	wall              time.Duration
	events            uint64
	client, proxy, or layerClock
}

// simTracedPass builds the cluster's nodes, wraps each in a timing
// decorator and runs them on an engine of its own.
func simTracedPass(spec simSpec, seed int64, objs []ids.ObjectID, spans *spanLog) (*tracedSim, error) {
	t := &tracedSim{}
	buildStart := time.Now()
	cl, err := cluster.New(spec.clusterConfig(seed), trace.NewSliceSource(objs))
	if err != nil {
		return nil, err
	}
	eng := sim.NewVEngine(sim.DefaultLatencyModel())
	for _, p := range cl.ADCProxies() {
		if err := eng.Register(&timedNode{Node: p, clk: &t.proxy, spans: spans, name: "proxy"}); err != nil {
			return nil, err
		}
	}
	if err := eng.Register(&timedNode{Node: cl.Origin(), clk: &t.or, spans: spans, name: "origin"}); err != nil {
		return nil, err
	}
	for _, c := range cl.Clients() {
		if err := eng.Register(&timedStarter{timedNode{Node: c, clk: &t.client, spans: spans, name: "client"}}); err != nil {
			return nil, err
		}
	}
	t.buildMs = float64(time.Since(buildStart).Microseconds()) / 1000

	start := time.Now()
	if err := eng.Run(); err != nil {
		return nil, err
	}
	t.wall = time.Since(start)
	t.events = eng.Delivered()
	t.out = collectSim(cl)
	return t, nil
}

// collectSim merges the clients' collectors the way cluster.Run does, in
// the same order of operations, so the floats come out bit-identical.
func collectSim(cl *cluster.Cluster) simOutcome {
	var o simOutcome
	var hist *stats.Histogram
	for _, c := range cl.Clients() {
		s := c.Collector().Summary()
		if h := c.Collector().ResponseHistogram(); h != nil {
			if hist == nil {
				hist = h
			} else {
				hist.Merge(h)
			}
		}
		o.requests += s.Requests
		o.hits += s.Hits
		o.hops += s.Hops * float64(s.Requests)
		o.meanResponse += s.MeanResponse * float64(s.Requests)
	}
	if o.requests > 0 {
		o.hitRate = float64(o.hits) / float64(o.requests)
		o.hops /= float64(o.requests)
		o.meanResponse /= float64(o.requests)
	}
	if hist != nil {
		o.p99 = hist.Quantile(0.99)
	}
	var total metrics.ProxyStats
	for _, p := range cl.ADCProxies() {
		total.Add(p.Stats())
	}
	o.proxies = adc.ProxyStats(total)
	o.originResolved = cl.Origin().Resolved()
	return o
}

// simFloor runs the workload's own clients against echo nodes: the same
// injection and timer traffic with no protocol or table work. Replies
// come back after one hop, so fewer requests are in flight and the event
// heap is shallower than in the real run.
func simFloor(spec simSpec, seed int64, objs []ids.ObjectID) (float64, error) {
	cl, err := cluster.New(spec.clusterConfig(seed), trace.NewSliceSource(objs))
	if err != nil {
		return 0, err
	}
	eng := sim.NewVEngine(sim.DefaultLatencyModel())
	for i := 0; i < simProxies; i++ {
		if err := eng.Register(echoNode{id: ids.NodeID(i)}); err != nil {
			return 0, err
		}
	}
	for _, c := range cl.Clients() {
		if err := eng.Register(c); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if err := eng.Run(); err != nil {
		return 0, err
	}
	wall := time.Since(start)
	var done uint64
	for _, c := range cl.Clients() {
		done += c.Collector().Requests()
	}
	if done != uint64(len(objs)) {
		return 0, fmt.Errorf("floor run completed %d of %d requests", done, len(objs))
	}
	return ratio(float64(wall.Nanoseconds()), float64(eng.Delivered())), nil
}

// runSimTraced produces the per-layer numbers of one simulator workload:
// an undecorated reference (process.* and the overhead base), decorated
// passes, the engine floor and the table replay.
func runSimTraced(opt options, spec simSpec) (*report, error) {
	r := newReport()
	spec = spec.scaled(opt.scale)
	requests := spec.requests

	genStart := time.Now()
	objs, err := spec.materialize(requests, opt.seed)
	if err != nil {
		return nil, err
	}
	r.Values["workload.next_ns_per_req"] = float64(time.Since(genStart).Nanoseconds()) / float64(requests)

	before := snapshotProcess()
	ref, refRates, err := simPasses(r, spec.config(opt.seed), objs, opt.seconds/3, 1)
	if err != nil {
		return nil, err
	}
	before.costUntil(r, snapshotProcess(), float64(len(refRates)*requests))

	clockNs := clockCostNs()
	stream := objectIDs(objs)
	spans := newSpanLog(opt.sampleEvery(simSampleEvery))
	var passes []*tracedSim
	var measured time.Duration
	for len(passes) == 0 || measured.Seconds() < opt.seconds/3 {
		// Spans of the first pass are enough for the trace file.
		log := spans
		if len(passes) > 0 {
			log = nil
		}
		t, err := simTracedPass(spec, opt.seed, stream, log)
		if err != nil {
			return nil, err
		}
		if t.out != ref {
			r.fail(fmt.Sprintf("traced pass differs from untraced: %+v vs %+v", t.out, ref))
		}
		r.Attempted += requests
		r.Failed += requests - int(min(t.out.requests, uint64(requests)))
		passes = append(passes, t)
		measured += t.wall
	}
	// Per-layer times come from the median pass; the counts are the same
	// on every pass.
	slices.SortFunc(passes, func(a, b *tracedSim) int { return cmp.Compare(a.wall, b.wall) })
	t := passes[len(passes)/2]
	n := float64(requests)
	events := float64(t.events)
	handled := float64(t.client.ns + t.proxy.ns + t.or.ns)
	r.Values["sim.build_ms"] = t.buildMs
	r.Values["sim.events_per_req"] = events / n
	r.Values["sim.self_ns_per_event"] = max((float64(t.wall.Nanoseconds())-handled)/events-clockNs/2, 0)
	r.Values["sim.client_ns_per_msg"] = t.client.perMsg(clockNs)
	r.Values["sim.origin_ns_per_msg"] = t.or.perMsg(clockNs)
	r.Values["proxy.handle_ns_per_msg"] = t.proxy.perMsg(clockNs)
	r.Values["proxy.msgs_per_req"] = float64(t.proxy.msgs) / n
	ps := t.out.proxies
	r.Values["proxy.local_hits_per_req"] = float64(ps.LocalHits) / n
	r.Values["proxy.forward_learned_per_req"] = float64(ps.ForwardLearned) / n
	r.Values["proxy.forward_random_per_req"] = float64(ps.ForwardRandom) / n
	r.Values["proxy.forward_origin_per_req"] = float64(ps.ForwardOrigin) / n
	r.Values["proxy.loops_per_req"] = float64(ps.LoopsDetected) / n
	r.Values["proxy.cache_insertions_per_req"] = float64(ps.CacheInsertions) / n
	r.Values["proxy.cache_evictions_per_req"] = float64(ps.CacheEvictions) / n
	r.Values["proxy.learned_forward_share"] = ratio(float64(ps.ForwardLearned),
		float64(ps.ForwardLearned+ps.ForwardRandom+ps.ForwardOrigin))

	floor, err := simFloor(spec, opt.seed, stream)
	if err != nil {
		return nil, err
	}
	r.Values["sim.floor_ns_per_event"] = floor

	replayTables(r, core.Config{SingleSize: simSingle, MultipleSize: simMultiple, CachingSize: simCaching}, objs)
	r.Values["trace.overhead_share"] = 1 - ratio(n/t.wall.Seconds(), median(refRates))
	zeroLayers(r, opt.workload)

	if err := spans.writeChrome(opt.tracePath()); err != nil {
		return nil, err
	}
	r.note(fmt.Sprintf("%d untraced + %d traced passes of %d requests; traced results identical to untraced", len(refRates), len(passes), requests))
	r.note(fmt.Sprintf("a pair of clock reads costs %.0f ns here; half is subtracted from every Handle time and half from the engine's self time per event", clockNs))
	r.note(fmt.Sprintf("%d spans of 1-in-%d requests written to %s", spans.len(), spans.every, opt.tracePath()))
	simBudget(r, t, clockNs)
	return r, nil
}

// simBudget prints where a traced pass's wall time went, layer by layer.
// Engine self time is the remainder, so the parts sum to the whole.
func simBudget(r *report, t *tracedSim, clockNs float64) {
	wall := float64(t.wall.Nanoseconds())
	share := func(c layerClock) float64 { return 100 * (float64(c.ns) - clockNs/2*float64(c.msgs)) / wall }
	clocks := 100 * clockNs * float64(t.events) / wall
	self := 100 - share(t.client) - share(t.proxy) - share(t.or) - clocks
	r.note(fmt.Sprintf("budget of the traced pass: proxy.Handle %.1f%% · client.Handle %.1f%% · origin.Handle %.1f%% · engine self %.1f%% · decorator clock reads %.1f%%",
		share(t.proxy), share(t.client), share(t.or), self, clocks))
}

// replayTables drives the workload's own object stream through one
// core.Tables of the workload's sizes: the table layer alone, outside any
// proxy.
func replayTables(r *report, cfg core.Config, objs []uint64) {
	tables, err := core.NewTables(cfg)
	if err != nil {
		r.fail("core.NewTables: " + err.Error())
		return
	}
	var promotions, evictions int
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	for i, o := range objs {
		out := tables.Update(ids.ObjectID(o), ids.NodeID(i%simProxies), int64(i+1))
		if out.From != core.KindNone && out.To < out.From {
			promotions++
		}
		if out.CacheEvicted != nil {
			evictions++
		}
		tables.Recycle(out)
	}
	update := time.Since(start)
	runtime.ReadMemStats(&ms)
	n := float64(len(objs))
	r.Values["core.update_ns_per_op"] = float64(update.Nanoseconds()) / n
	r.Values["core.update_allocs_per_op"] = float64(ms.Mallocs-mallocs) / n
	r.Values["core.promotions_per_op"] = float64(promotions) / n
	r.Values["core.cache_evictions_per_op"] = float64(evictions) / n

	found := 0
	start = time.Now()
	for _, o := range objs {
		if e, _ := tables.Lookup(ids.ObjectID(o)); e != nil {
			found++
		}
	}
	r.Values["core.lookup_ns_per_op"] = float64(time.Since(start).Nanoseconds()) / n
	if found == 0 {
		r.fail("table replay: no object of the stream is in the tables after replaying it")
	}
}
