package sim

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/workload"
)

// tick is the open-loop client's private timer message. Each client owns a
// single tick it schedules repeatedly — at most one is ever in flight, so
// reusing the pointer is safe and avoids boxing an allocation into the
// msg.Message interface on every injection.
type tick struct{ to ids.NodeID }

// Dest implements msg.Message.
func (t *tick) Dest() ids.NodeID { return t.to }

// OpenLoopClient injects requests at a configured arrival rate regardless
// of outstanding replies — the way Web Polygraph drives a proxy farm
// ("TheBench.peak_req_rate = 100/sec", paper Fig. 10). Multiple requests
// are in flight at once, so unlike the closed-loop Client it exercises
// queueing and interleaving; it requires the virtual-time engine (its
// timer is the Scheduler interface) and remains fully deterministic there.
type OpenLoopClient struct {
	id      ids.NodeID
	src     workload.Source
	proxies []ids.NodeID
	policy  EntryPolicy
	// rng is created on first draw (see rand): a rand.Rand is ~5 KB, and a
	// million-client run with fixed arrivals and a deterministic entry
	// policy never draws at all.
	rng       *rand.Rand
	seed      int64
	collector *metrics.Collector
	maxHops   int
	recovery  Recovery

	// interval is the mean inter-arrival time in virtual ticks; poisson
	// selects exponential instead of fixed spacing.
	interval int64
	poisson  bool

	counter  uint64
	rr       int
	injected int
	timer    *tick
	// inFlight counts injected requests neither answered nor abandoned.
	// Response times come from the reply's SentAt, so the lossless path
	// keeps no per-request state; attempts holds the recovery protocol's
	// retransmission state per live attempt, and only when it is enabled.
	inFlight  int
	attempts  ids.ReqTable[openReq]
	exhausted bool
	done      bool
	onDone    func()

	// tracer and ts are the optional observability hooks (nil = off).
	tracer *obs.Tracer
	ts     *metrics.TimeSeries
}

// openReq is the recovery protocol's state for one live attempt: the
// logical request's first-attempt send time (which a retransmission carries
// on as its SentAt), its object, how often it was retransmitted and the
// attempt's backoff-scaled timeout.
type openReq struct {
	sentAt  int64
	obj     ids.ObjectID
	retries int
	timeout int64
}

var (
	_ Node    = (*OpenLoopClient)(nil)
	_ Starter = (*OpenLoopClient)(nil)
)

// OpenLoopConfig assembles an OpenLoopClient.
type OpenLoopConfig struct {
	// Index, Source, Proxies, Policy, Seed, Collector, MaxHops, OnDone
	// mirror ClientConfig.
	Index     int
	Source    workload.Source
	Proxies   []ids.NodeID
	Policy    EntryPolicy
	Seed      int64
	Collector *metrics.Collector
	MaxHops   int
	OnDone    func()

	// IntervalTicks is the mean inter-arrival time in virtual ticks.
	IntervalTicks int64
	// Poisson draws exponential inter-arrival times instead of fixed.
	Poisson bool
	// Recovery enables timeouts and retransmission (the zero value keeps
	// the paper-faithful lossless protocol).
	Recovery Recovery
}

// NewOpenLoopClient builds an open-loop driver.
func NewOpenLoopClient(cfg OpenLoopConfig) (*OpenLoopClient, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("sim: open-loop client %d needs a workload source", cfg.Index)
	}
	if len(cfg.Proxies) == 0 {
		return nil, fmt.Errorf("sim: open-loop client %d needs at least one proxy", cfg.Index)
	}
	if cfg.IntervalTicks <= 0 {
		return nil, fmt.Errorf("sim: open-loop interval must be positive, got %d", cfg.IntervalTicks)
	}
	if cfg.Collector == nil {
		cfg.Collector = metrics.NewCollector(metrics.WithSampleEvery(0))
	}
	cfg.Recovery = cfg.Recovery.Normalize()
	if err := cfg.Recovery.Validate(); err != nil {
		return nil, err
	}
	return &OpenLoopClient{
		id:        ids.Client(cfg.Index),
		src:       cfg.Source,
		proxies:   cfg.Proxies,
		policy:    cfg.Policy,
		seed:      cfg.Seed,
		collector: cfg.Collector,
		maxHops:   cfg.MaxHops,
		recovery:  cfg.Recovery,
		interval:  cfg.IntervalTicks,
		poisson:   cfg.Poisson,
		timer:     &tick{to: ids.Client(cfg.Index)},
		onDone:    cfg.OnDone,
	}, nil
}

// ID implements Node.
func (c *OpenLoopClient) ID() ids.NodeID { return c.id }

// Collector returns the metrics sink.
func (c *OpenLoopClient) Collector() *metrics.Collector { return c.collector }

// Done reports whether the trace is exhausted and every reply received.
func (c *OpenLoopClient) Done() bool { return c.done }

// SetOnDone installs the completion callback before the run starts.
func (c *OpenLoopClient) SetOnDone(fn func()) { c.onDone = fn }

// SetTracer installs the request tracer (before the run starts).
func (c *OpenLoopClient) SetTracer(t *obs.Tracer) { c.tracer = t }

// SetTimeSeries installs the shared time-series recorder (before the run
// starts).
func (c *OpenLoopClient) SetTimeSeries(ts *metrics.TimeSeries) { c.ts = ts }

// Outstanding returns the number of in-flight requests (test support).
func (c *OpenLoopClient) Outstanding() int { return c.inFlight }

// Injected returns the number of logical requests injected so far;
// retransmissions of a timed-out request count once.
func (c *OpenLoopClient) Injected() uint64 { return uint64(c.injected) }

// Start implements Starter. The context must support virtual-time
// scheduling; the cluster layer guarantees it by only pairing this client
// with the virtual-time engine.
func (c *OpenLoopClient) Start(ctx Context) {
	sched, ok := ctx.(Scheduler)
	if !ok {
		panic("sim: OpenLoopClient requires a virtual-time engine (Scheduler)")
	}
	sched.After(0, c.timer)
}

// Handle implements Node: ticks inject, replies complete, retry timers
// (recovery mode only) retransmit or abandon.
func (c *OpenLoopClient) Handle(ctx Context, m msg.Message) {
	switch t := m.(type) {
	case *tick:
		c.inject(ctx)
	case *msg.Reply:
		c.complete(ctx, t)
	case *retryTimer:
		c.handleTimeout(ctx, t)
	}
}

func (c *OpenLoopClient) inject(ctx Context) {
	obj, ok := c.src.Next()
	if !ok {
		c.exhausted = true
		c.maybeFinish()
		return
	}
	now := ctx.(Clock).VNow() // Start already proved the engine supports it
	c.counter++
	id := ids.NewRequestID(c.id.ClientIndex(), c.counter)
	if c.recovery.Enabled {
		*c.attempts.Upsert(id) = openReq{sentAt: now, obj: obj, timeout: c.recovery.Timeout}
	}
	c.inFlight++
	c.injected++
	c.ts.Inject(now)
	req := NewRequest(ctx)
	req.To = c.pickEntry()
	req.ID = id
	req.Object = obj
	req.Client = c.id
	req.Sender = c.id
	req.MaxHops = c.maxHops
	req.SentAt = now
	if c.tracer.Enabled(obs.KindInject) {
		e := obs.Ev(obs.KindInject, c.id)
		e.At = now
		e.Req = id
		e.Obj = obj
		e.To = req.To
		c.tracer.Emit(e)
	}
	ctx.Send(req)
	if c.recovery.Enabled {
		ctx.(Scheduler).After(c.recovery.Timeout, &retryTimer{to: c.id, id: id})
	}
	ctx.(Scheduler).After(c.nextGap(), c.timer)
}

func (c *OpenLoopClient) complete(ctx Context, rep *msg.Reply) {
	if c.recovery.Enabled {
		if c.attempts.Find(rep.ID) == nil {
			// Duplicate from a retransmitted chain, or a reply racing
			// its own timeout: the request was already completed or
			// superseded, so only recycle.
			if c.tracer.Enabled(obs.KindStaleReply) {
				e := obs.Ev(obs.KindStaleReply, c.id)
				e.At = traceNow(ctx)
				e.Req = rep.ID
				e.Obj = rep.Object
				c.tracer.Emit(e)
			}
			c.collector.RecordStaleReply()
			Finish(ctx, rep)
			return
		}
		c.attempts.Delete(rep.ID)
	}
	c.inFlight--
	c.collector.Record(!rep.FromOrigin, rep.Hops, rep.PathLen)
	if clk, isClock := ctx.(Clock); isClock {
		c.collector.RecordResponse(clk.VNow() - rep.SentAt)
	}
	if c.tracer.Enabled(obs.KindDeliver) {
		e := obs.Ev(obs.KindDeliver, c.id)
		e.At = traceNow(ctx)
		e.Req = rep.ID
		e.Obj = rep.Object
		e.Loc = rep.Resolver
		e.Hops = int32(rep.Hops)
		if rep.FromOrigin {
			e.Arg = 1
		}
		c.tracer.Emit(e)
	}
	if c.ts != nil {
		c.ts.Complete(traceNow(ctx), !rep.FromOrigin, int32(rep.Hops))
	}
	Finish(ctx, rep) // terminal delivery: the reply recycles
	c.maybeFinish()
}

// handleTimeout retransmits a timed-out request under a fresh ID with
// exponential backoff, or abandons it once the retry budget is spent. A
// timer whose ID is no longer outstanding is stale (the reply won) and is
// ignored.
func (c *OpenLoopClient) handleTimeout(ctx Context, t *retryTimer) {
	if !c.recovery.Enabled {
		return
	}
	live := c.attempts.Find(t.id)
	if live == nil {
		return // answered or superseded
	}
	r := *live
	c.attempts.Delete(t.id)
	c.collector.RecordTimeout()
	if c.tracer.Enabled(obs.KindTimeout) {
		e := obs.Ev(obs.KindTimeout, c.id)
		e.At = traceNow(ctx)
		e.Req = t.id
		e.Obj = r.obj
		c.tracer.Emit(e)
	}
	c.ts.Timeout(traceNow(ctx))
	if r.retries >= c.recovery.MaxRetries {
		c.inFlight--
		c.collector.RecordAbandoned()
		if c.tracer.Enabled(obs.KindAbandon) {
			e := obs.Ev(obs.KindAbandon, c.id)
			e.At = traceNow(ctx)
			e.Req = t.id
			e.Obj = r.obj
			e.Arg = int64(r.retries)
			c.tracer.Emit(e)
		}
		c.ts.Abandon(traceNow(ctx))
		c.maybeFinish()
		return
	}
	c.collector.RecordRetry()
	c.ts.Retry(traceNow(ctx))
	c.counter++
	id := ids.NewRequestID(c.id.ClientIndex(), c.counter)
	r.retries++
	r.timeout = int64(float64(r.timeout) * c.recovery.Backoff)
	*c.attempts.Upsert(id) = r
	req := NewRequest(ctx)
	req.To = c.pickEntry()
	req.ID = id
	req.Object = r.obj
	req.Client = c.id
	req.Sender = c.id
	req.MaxHops = c.maxHops
	req.SentAt = r.sentAt
	if c.tracer.Enabled(obs.KindRetry) {
		e := obs.Ev(obs.KindRetry, c.id)
		e.At = traceNow(ctx)
		e.Req = id
		e.Obj = r.obj
		e.To = req.To
		e.Prev = t.id
		e.Arg = int64(r.retries)
		c.tracer.Emit(e)
	}
	ctx.Send(req)
	ctx.(Scheduler).After(r.timeout, &retryTimer{to: c.id, id: id})
}

func (c *OpenLoopClient) maybeFinish() {
	if !c.done && c.exhausted && c.inFlight == 0 {
		c.done = true
		if c.onDone != nil {
			c.onDone()
		}
	}
}

// rand returns the client's private random stream, created on first use.
// Lazy creation changes nothing observable — the stream is seeded the same
// whenever it is built — but leaves rng nil for the common large-scale
// configuration (fixed arrivals, fixed or round-robin entry), which never
// draws.
func (c *OpenLoopClient) rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.seed ^ 0x0BADCAFE))
	}
	return c.rng
}

// nextGap draws the next inter-arrival time.
func (c *OpenLoopClient) nextGap() int64 {
	if !c.poisson {
		return c.interval
	}
	rng := c.rand()
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	gap := int64(-math.Log(u) * float64(c.interval))
	if gap < 1 {
		gap = 1
	}
	return gap
}

func (c *OpenLoopClient) pickEntry() ids.NodeID {
	switch c.policy {
	case EntryRoundRobin:
		p := c.proxies[c.rr%len(c.proxies)]
		c.rr++
		return p
	case EntryFixed:
		return c.proxies[0]
	default:
		return c.proxies[c.rand().Intn(len(c.proxies))]
	}
}
