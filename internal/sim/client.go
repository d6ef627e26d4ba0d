package sim

import (
	"fmt"
	"math/rand"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/workload"
)

// EntryPolicy selects which proxy a client sends each request to.
type EntryPolicy int

// Entry policies.
const (
	// EntryRandom picks a uniformly random proxy per request (default;
	// models independent clients scattered over the network).
	EntryRandom EntryPolicy = iota
	// EntryRoundRobin cycles through the proxies.
	EntryRoundRobin
	// EntryFixed always uses the first proxy — the worst case for
	// hashing schemes and a stress test for ADC's backwarding.
	EntryFixed
)

// String implements fmt.Stringer.
func (p EntryPolicy) String() string {
	switch p {
	case EntryRandom:
		return "random"
	case EntryRoundRobin:
		return "round-robin"
	case EntryFixed:
		return "fixed"
	default:
		return fmt.Sprintf("EntryPolicy(%d)", int(p))
	}
}

// retryTimer is a client's per-attempt timeout message: it carries the
// request ID of the attempt it guards, so a timer that fires after the
// reply arrived (or after a newer retransmission superseded the attempt)
// identifies itself as stale and is ignored. Timers travel through
// Scheduler.After and are never subject to fault-plan loss.
type retryTimer struct {
	to ids.NodeID
	id ids.RequestID
}

// Dest implements msg.Message.
func (t *retryTimer) Dest() ids.NodeID { return t.to }

// Client is the closed-loop request driver: it keeps exactly one request
// outstanding, records each completion, and injects the next request when
// the reply arrives. Closed-loop injection is what makes concurrent and
// distributed runs deliver bit-identical metrics to the sequential engine
// (DESIGN.md §3).
//
// With Recovery enabled (virtual-time engine only) the client additionally
// arms a timeout per attempt and retransmits timed-out requests under a
// fresh request ID with exponential backoff, abandoning the request after
// MaxRetries so the closed loop keeps moving even when a chain is
// permanently stranded.
type Client struct {
	id      ids.NodeID
	src     workload.Source
	proxies []ids.NodeID
	policy  EntryPolicy
	// rng is created on first draw (a rand.Rand is ~5 KB; deterministic
	// entry policies never draw).
	rng       *rand.Rand
	seed      int64
	collector *metrics.Collector
	maxHops   int
	recovery  Recovery

	counter uint64
	rr      int
	done    bool
	// sentAt is the virtual send time of the outstanding request, used
	// to measure response time on virtual-time engines. Retransmissions
	// keep the first attempt's sentAt: response time is user-perceived.
	sentAt int64

	// injected counts logical requests (retransmissions count once).
	injected uint64
	// curID is the outstanding attempt's request ID (0 = none); replies
	// and timers for any other ID are stale. curObj and retries describe
	// the logical request the attempt belongs to, curTimeout the
	// attempt's backoff-scaled timeout.
	curID      ids.RequestID
	curObj     ids.ObjectID
	retries    int
	curTimeout int64

	// onDone, when set, fires once after the last reply is recorded;
	// the agents runtime uses it to know when to shut down.
	onDone func()

	// tracer and ts are the optional observability hooks; both nil in the
	// default configuration, where every guard is a single branch.
	tracer *obs.Tracer
	ts     *metrics.TimeSeries
}

var (
	_ Node    = (*Client)(nil)
	_ Starter = (*Client)(nil)
)

// ClientConfig assembles a Client.
type ClientConfig struct {
	// Index distinguishes multiple clients; the NodeID is ids.Client(Index).
	Index int
	// Source supplies the request stream.
	Source workload.Source
	// Proxies lists the entry points.
	Proxies []ids.NodeID
	// Policy selects the entry proxy per request (default EntryRandom).
	Policy EntryPolicy
	// Seed drives the EntryRandom choice.
	Seed int64
	// Collector receives one Record per completed request.
	Collector *metrics.Collector
	// MaxHops is copied onto every request (0 = unbounded).
	MaxHops int
	// OnDone fires after the final reply (optional).
	OnDone func()
	// Recovery enables timeouts and retransmission (virtual-time engine
	// only; the zero value keeps the paper-faithful lossless protocol).
	Recovery Recovery
}

// NewClient builds a client driver.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("sim: client %d needs a workload source", cfg.Index)
	}
	if len(cfg.Proxies) == 0 {
		return nil, fmt.Errorf("sim: client %d needs at least one proxy", cfg.Index)
	}
	if cfg.Collector == nil {
		cfg.Collector = metrics.NewCollector(metrics.WithSampleEvery(0))
	}
	cfg.Recovery = cfg.Recovery.Normalize()
	if err := cfg.Recovery.Validate(); err != nil {
		return nil, err
	}
	return &Client{
		id:        ids.Client(cfg.Index),
		src:       cfg.Source,
		proxies:   cfg.Proxies,
		policy:    cfg.Policy,
		seed:      cfg.Seed,
		collector: cfg.Collector,
		maxHops:   cfg.MaxHops,
		recovery:  cfg.Recovery,
		onDone:    cfg.OnDone,
	}, nil
}

// ID implements Node.
func (c *Client) ID() ids.NodeID { return c.id }

// SetOnDone installs the completion callback; it must be called before the
// run starts. Concurrent runtimes use it to learn when traffic has drained.
func (c *Client) SetOnDone(fn func()) { c.onDone = fn }

// AddProxy adds a newly joined proxy to the entry-point set (infrastructure
// growth). Safe only between requests on the sequential engine.
func (c *Client) AddProxy(id ids.NodeID) {
	for _, p := range c.proxies {
		if p == id {
			return
		}
	}
	c.proxies = append(c.proxies, id)
}

// Collector returns the metrics sink.
func (c *Client) Collector() *metrics.Collector { return c.collector }

// SetTracer installs the request tracer (before the run starts).
func (c *Client) SetTracer(t *obs.Tracer) { c.tracer = t }

// SetTimeSeries installs the shared time-series recorder (before the run
// starts; virtual-time engine only).
func (c *Client) SetTimeSeries(ts *metrics.TimeSeries) { c.ts = ts }

// Done reports whether the trace is exhausted and the last reply recorded.
func (c *Client) Done() bool { return c.done }

// Injected returns the number of logical requests injected so far;
// retransmissions of a timed-out request count once.
func (c *Client) Injected() uint64 { return c.injected }

// Start implements Starter: it injects the first request.
func (c *Client) Start(ctx Context) {
	c.sendNext(ctx)
}

// Handle implements Node: replies complete the outstanding request, retry
// timers (recovery mode only) retransmit or abandon it.
func (c *Client) Handle(ctx Context, m msg.Message) {
	switch t := m.(type) {
	case *msg.Reply:
		c.handleReply(ctx, t)
	case *retryTimer:
		c.handleTimeout(ctx, t)
	}
}

func (c *Client) handleReply(ctx Context, rep *msg.Reply) {
	if c.recovery.Enabled && rep.ID != c.curID {
		// A duplicate from a retransmitted chain (the original and the
		// retry both completed), or a reply racing its own abandonment:
		// already recorded once, so only recycle it.
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
	c.curID = 0 // answered: any further reply or timer for it is stale
	c.collector.Record(!rep.FromOrigin, rep.Hops, rep.PathLen)
	if clk, ok := ctx.(Clock); ok {
		c.collector.RecordResponse(clk.VNow() - c.sentAt)
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
	c.sendNext(ctx)
}

// handleTimeout fires when an attempt's timer expires: stale timers are
// ignored, live ones retransmit under a fresh request ID (so in-flight
// loop-detection state from the dead attempt can never confuse the new
// chain) or abandon the request once the retry budget is spent.
func (c *Client) handleTimeout(ctx Context, t *retryTimer) {
	if !c.recovery.Enabled || t.id != c.curID || c.curID == 0 {
		return
	}
	c.collector.RecordTimeout()
	if c.tracer.Enabled(obs.KindTimeout) {
		e := obs.Ev(obs.KindTimeout, c.id)
		e.At = traceNow(ctx)
		e.Req = c.curID
		e.Obj = c.curObj
		c.tracer.Emit(e)
	}
	c.ts.Timeout(traceNow(ctx))
	if c.retries >= c.recovery.MaxRetries {
		// Permanently stranded: give up so the closed loop keeps moving.
		c.collector.RecordAbandoned()
		if c.tracer.Enabled(obs.KindAbandon) {
			e := obs.Ev(obs.KindAbandon, c.id)
			e.At = traceNow(ctx)
			e.Req = c.curID
			e.Obj = c.curObj
			e.Arg = int64(c.retries)
			c.tracer.Emit(e)
		}
		c.ts.Abandon(traceNow(ctx))
		c.curID = 0
		c.sendNext(ctx)
		return
	}
	c.retries++
	c.collector.RecordRetry()
	c.ts.Retry(traceNow(ctx))
	c.curTimeout = int64(float64(c.curTimeout) * c.recovery.Backoff)
	c.send(ctx)
}

func (c *Client) sendNext(ctx Context) {
	obj, ok := c.src.Next()
	if !ok {
		if !c.done {
			c.done = true
			if c.onDone != nil {
				c.onDone()
			}
		}
		return
	}
	c.injected++
	c.curObj = obj
	c.retries = 0
	c.curTimeout = c.recovery.Timeout
	if clk, ok := ctx.(Clock); ok {
		c.sentAt = clk.VNow()
	}
	if c.ts != nil {
		c.ts.Inject(c.sentAt)
	}
	c.send(ctx)
}

// send issues one attempt (first or retransmission) for the current
// logical request and arms its timeout.
func (c *Client) send(ctx Context) {
	prev := c.curID
	c.counter++
	c.curID = ids.NewRequestID(c.id.ClientIndex(), c.counter)
	req := NewRequest(ctx)
	req.To = c.pickEntry()
	req.ID = c.curID
	req.Object = c.curObj
	req.Client = c.id
	req.Sender = c.id
	req.MaxHops = c.maxHops
	req.SentAt = c.sentAt
	if c.tracer != nil {
		// First attempt of a logical request injects; retransmissions
		// link back to the attempt they supersede so the trace tooling
		// can keep the whole chain in one request tree.
		kind := obs.KindInject
		if c.retries > 0 {
			kind = obs.KindRetry
		}
		if c.tracer.Enabled(kind) {
			e := obs.Ev(kind, c.id)
			e.At = traceNow(ctx)
			e.Req = c.curID
			e.Obj = c.curObj
			e.To = req.To
			e.Prev = prev
			e.Arg = int64(c.retries)
			c.tracer.Emit(e)
		}
	}
	ctx.Send(req)
	if c.recovery.Enabled {
		if sched, ok := ctx.(Scheduler); ok {
			sched.After(c.curTimeout, &retryTimer{to: c.id, id: c.curID})
		}
	}
}

func (c *Client) pickEntry() ids.NodeID {
	switch c.policy {
	case EntryRoundRobin:
		p := c.proxies[c.rr%len(c.proxies)]
		c.rr++
		return p
	case EntryFixed:
		return c.proxies[0]
	default:
		if c.rng == nil {
			c.rng = rand.New(rand.NewSource(c.seed ^ 0x5DEECE66D))
		}
		return c.proxies[c.rng.Intn(len(c.proxies))]
	}
}
