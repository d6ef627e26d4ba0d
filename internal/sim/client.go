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

// ParseEntryPolicy converts an entry-policy name ("random", "round-robin",
// "fixed") to its EntryPolicy; the empty string selects the default.
func ParseEntryPolicy(name string) (EntryPolicy, error) {
	switch name {
	case "", "random":
		return EntryRandom, nil
	case "round-robin":
		return EntryRoundRobin, nil
	case "fixed":
		return EntryFixed, nil
	default:
		return 0, fmt.Errorf("sim: unknown entry policy %q (want random, round-robin or fixed)", name)
	}
}

// retryTimer is a client's per-attempt timeout message: it carries the
// request ID of the attempt it guards, so a timer that fires after the
// reply arrived (or after a newer retransmission superseded the attempt)
// identifies itself as stale and is ignored. Timers travel through
// Context.After and are never subject to fault-plan loss.
type retryTimer struct {
	to ids.NodeID
	id ids.RequestID
}

// Dest implements msg.Message.
func (t *retryTimer) Dest() ids.NodeID { return t.to }

// tick is the open-loop client's private arrival timer. Each client owns a
// single tick it schedules repeatedly — at most one is ever in flight, so
// reusing the pointer is safe and avoids boxing an allocation into the
// msg.Message interface on every injection.
type tick struct{ to ids.NodeID }

// Dest implements msg.Message.
func (t *tick) Dest() ids.NodeID { return t.to }

// Client is the request driver. Its two modes differ only in when it
// injects:
//
//   - Closed loop (IntervalTicks == 0): one request outstanding; the first
//     is injected at Start, the next each time one is answered or
//     abandoned. Closed-loop injection keeps the message order of one
//     request chain independent of the substrate (DESIGN.md §3).
//   - Open loop (IntervalTicks > 0): requests arrive on the client's own
//     timer at a fixed or Poisson rate regardless of outstanding replies —
//     the way Web Polygraph drives a proxy farm ("TheBench.peak_req_rate =
//     100/sec", paper Fig. 10) — so many are in flight at once. The timer
//     is Context.After.
//
// Everything else is one path: inject → send → complete or handleTimeout →
// retire. Response time is measured from the reply's SentAt, so the
// lossless protocol counts requests in flight and keeps no per-request
// state. With Recovery enabled every attempt
// arms a timeout; a timed-out request is retransmitted under a fresh
// request ID with exponential backoff and abandoned after MaxRetries, so
// the closed loop keeps moving even when a chain is permanently stranded.
type Client struct {
	id      ids.NodeID
	src     workload.Source
	proxies []ids.NodeID
	policy  EntryPolicy
	// rng is created on first draw (see rand).
	rng       *rand.Rand
	seed      int64
	collector *metrics.Collector
	maxHops   int
	recovery  Recovery

	// interval is the open loop's mean inter-arrival time in virtual ticks
	// (0 = closed loop), poisson selects exponential instead of fixed
	// spacing, and timer is the open loop's one reusable tick.
	interval int64
	poisson  bool
	timer    *tick

	counter uint64
	rr      int
	// injected counts logical requests (retransmissions count once),
	// inFlight those neither answered nor abandoned. attempts holds the
	// recovery protocol's state per live attempt, and only when it is
	// enabled; in closed-loop mode it never holds more than one entry.
	injected  uint64
	inFlight  int
	attempts  ids.ReqTable[attempt]
	exhausted bool

	// tracer and ts are the optional observability hooks; both nil in the
	// default configuration, where every guard is a single branch.
	tracer *obs.Tracer
	ts     *metrics.TimeSeries
}

// attempt is the recovery protocol's state for one live attempt: the
// logical request's first-attempt send time (which a retransmission carries
// on as its SentAt, so response time stays user-perceived), its object, how
// often it was retransmitted and the attempt's backoff-scaled timeout.
type attempt struct {
	sentAt  int64
	obj     ids.ObjectID
	retries int
	timeout int64
}

var (
	_ Isolated = (*Client)(nil)
	_ Starter  = (*Client)(nil)
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
	// Seed drives the EntryRandom choice and Poisson arrivals.
	Seed int64
	// Collector receives one Record per completed request.
	Collector *metrics.Collector
	// MaxHops is copied onto every request (0 = unbounded).
	MaxHops int
	// Recovery enables timeouts and retransmission (the zero value keeps
	// the paper-faithful lossless protocol).
	Recovery Recovery
	// IntervalTicks is the open loop's mean inter-arrival time in virtual
	// ticks; 0 selects the closed loop.
	IntervalTicks int64
	// Poisson draws exponential inter-arrival times instead of fixed.
	Poisson bool
}

// NewClient builds a client driver.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("sim: client %d needs a workload source", cfg.Index)
	}
	if len(cfg.Proxies) == 0 {
		return nil, fmt.Errorf("sim: client %d needs at least one proxy", cfg.Index)
	}
	if cfg.IntervalTicks < 0 {
		return nil, fmt.Errorf("sim: client %d: open-loop interval must be non-negative, got %d", cfg.Index, cfg.IntervalTicks)
	}
	if cfg.Collector == nil {
		cfg.Collector = metrics.NewCollector(metrics.WithSampleEvery(0))
	}
	cfg.Recovery = cfg.Recovery.Normalize()
	if err := cfg.Recovery.Validate(); err != nil {
		return nil, err
	}
	c := &Client{
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
	}
	if c.interval > 0 {
		c.timer = &tick{to: c.id}
	}
	return c, nil
}

// ID implements Node.
func (c *Client) ID() ids.NodeID { return c.id }

// Isolated implements Isolated: a handler touches the client's own
// counters, random source, attempts and collector, and its workload
// source, which is the client's alone; an in-memory split stream shares
// only the read-only request slice, and its lookahead hint reaches the
// proxies only through Prefetch, which reads what is fixed for the run.
func (c *Client) Isolated() bool { return true }

// AddProxy adds a newly joined proxy to the entry-point set (infrastructure
// growth). Safe only between requests of a single closed-loop client.
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
// starts).
func (c *Client) SetTimeSeries(ts *metrics.TimeSeries) { c.ts = ts }

// Done reports whether the trace is exhausted and every request answered
// or abandoned.
func (c *Client) Done() bool { return c.exhausted && c.inFlight == 0 }

// Injected returns the number of logical requests injected so far;
// retransmissions of a timed-out request count once.
func (c *Client) Injected() uint64 { return c.injected }

// Start implements Starter: the closed loop injects its first request, the
// open loop arms its arrival timer.
func (c *Client) Start(ctx Context) {
	if c.interval == 0 {
		c.inject(ctx)
		return
	}
	ctx.After(0, c.timer)
}

// Handle implements Node: replies complete, ticks inject, retry timers
// (recovery mode only) retransmit or abandon.
func (c *Client) Handle(ctx Context, m msg.Message) {
	switch t := m.(type) {
	case *msg.Reply:
		c.complete(ctx, t)
	case *tick:
		c.inject(ctx)
	case *retryTimer:
		c.handleTimeout(ctx, t)
	}
}

// inject starts the next logical request, or marks the trace exhausted. The
// open loop then schedules its next arrival.
func (c *Client) inject(ctx Context) {
	obj, ok := c.src.Next()
	if !ok {
		c.exhausted = true
		return
	}
	now := ctx.VNow() // the send time
	c.injected++
	c.inFlight++
	if c.ts != nil {
		c.ts.Inject(now)
	}
	c.send(ctx, attempt{sentAt: now, obj: obj, timeout: c.recovery.Timeout}, 0)
	if c.interval > 0 {
		ctx.After(c.nextGap(), c.timer)
	}
}

// send issues one attempt — the first, or a retransmission superseding
// attempt prev — and, with recovery on, records it and arms its timeout.
func (c *Client) send(ctx Context, a attempt, prev ids.RequestID) {
	c.counter++
	id := ids.NewRequestID(c.id.ClientIndex(), c.counter)
	if c.recovery.Enabled {
		*c.attempts.Upsert(id) = a
	}
	req := ctx.Freelist().GetRequest()
	req.To = c.pickEntry()
	req.ID = id
	req.Object = a.obj
	req.Client = c.id
	req.Sender = c.id
	req.MaxHops = c.maxHops
	req.SentAt = a.sentAt
	if c.tracer != nil {
		// First attempt of a logical request injects; retransmissions
		// link back to the attempt they supersede so the trace tooling
		// can keep the whole chain in one request tree.
		kind := obs.KindInject
		if a.retries > 0 {
			kind = obs.KindRetry
		}
		if c.tracer.Enabled(kind) {
			e := obs.Ev(kind, c.id)
			e.At = ctx.VNow()
			e.Req = id
			e.Obj = a.obj
			e.To = req.To
			e.Prev = prev
			e.Arg = int64(a.retries)
			c.tracer.Emit(e)
		}
	}
	ctx.Send(req)
	if c.recovery.Enabled {
		ctx.After(a.timeout, &retryTimer{to: c.id, id: id})
	}
}

// complete records an answered request. With recovery on, a reply whose
// attempt is no longer live — a duplicate from a retransmitted chain, or a
// reply racing its own timeout — was already accounted for and only
// recycles.
func (c *Client) complete(ctx Context, rep *msg.Reply) {
	if c.recovery.Enabled {
		if c.attempts.Find(rep.ID) == nil {
			if c.tracer.Enabled(obs.KindStaleReply) {
				e := obs.Ev(obs.KindStaleReply, c.id)
				e.At = ctx.VNow()
				e.Req = rep.ID
				e.Obj = rep.Object
				c.tracer.Emit(e)
			}
			c.collector.RecordStaleReply()
			ctx.Freelist().PutReply(rep)
			return
		}
		c.attempts.Delete(rep.ID)
	}
	c.collector.Record(!rep.FromOrigin, rep.Hops, rep.PathLen)
	c.collector.RecordResponse(ctx.VNow() - rep.SentAt)
	if c.tracer.Enabled(obs.KindDeliver) {
		e := obs.Ev(obs.KindDeliver, c.id)
		e.At = ctx.VNow()
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
		c.ts.Complete(ctx.VNow(), !rep.FromOrigin, int32(rep.Hops))
	}
	ctx.Freelist().PutReply(rep) // terminal delivery: the reply recycles
	c.retire(ctx)
}

// handleTimeout fires when an attempt's timer expires: stale timers (the
// reply won, or a retransmission superseded the attempt) are ignored, live
// ones retransmit under a fresh request ID — so in-flight loop-detection
// state from the dead attempt can never confuse the new chain — or abandon
// the request once the retry budget is spent.
func (c *Client) handleTimeout(ctx Context, t *retryTimer) {
	if !c.recovery.Enabled {
		return
	}
	live := c.attempts.Find(t.id)
	if live == nil {
		return
	}
	a := *live
	c.attempts.Delete(t.id)
	c.collector.RecordTimeout()
	if c.tracer.Enabled(obs.KindTimeout) {
		e := obs.Ev(obs.KindTimeout, c.id)
		e.At = ctx.VNow()
		e.Req = t.id
		e.Obj = a.obj
		c.tracer.Emit(e)
	}
	c.ts.Timeout(ctx.VNow())
	if a.retries >= c.recovery.MaxRetries {
		// Permanently stranded: give up.
		c.collector.RecordAbandoned()
		if c.tracer.Enabled(obs.KindAbandon) {
			e := obs.Ev(obs.KindAbandon, c.id)
			e.At = ctx.VNow()
			e.Req = t.id
			e.Obj = a.obj
			e.Arg = int64(a.retries)
			c.tracer.Emit(e)
		}
		c.ts.Abandon(ctx.VNow())
		c.retire(ctx)
		return
	}
	c.collector.RecordRetry()
	c.ts.Retry(ctx.VNow())
	a.retries++
	a.timeout = int64(float64(a.timeout) * c.recovery.Backoff)
	c.send(ctx, a, t.id)
}

// retire takes an answered or abandoned request out of flight; the closed
// loop injects its successor.
func (c *Client) retire(ctx Context) {
	c.inFlight--
	if c.interval == 0 {
		c.inject(ctx)
	}
}

// rand returns the client's private random stream, created on first use: a
// rand.Rand is ~5 KB, and a million-client run with fixed arrivals and a
// deterministic entry policy never draws at all. The seed's salt depends on
// the mode — 0x5DEECE66D closed loop, 0x0BADCAFE open loop — so each mode
// draws the entry-proxy sequence it has always drawn, and every recorded
// run and golden constant holds.
func (c *Client) rand() *rand.Rand {
	if c.rng == nil {
		salt := int64(0x5DEECE66D)
		if c.interval > 0 {
			salt = 0x0BADCAFE
		}
		c.rng = rand.New(rand.NewSource(c.seed ^ salt))
	}
	return c.rng
}

// nextGap draws the open loop's next inter-arrival time.
func (c *Client) nextGap() int64 {
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

func (c *Client) pickEntry() ids.NodeID {
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
