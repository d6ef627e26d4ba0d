// Package proxy is the simulator's proxy node: one sim.Node that turns
// request and reply messages into a placement policy's events
// (protocol.Policy — ADC's agent, or a baseline's) and carries out what they
// decide.
//
// Each proxy is an autonomous agent that interacts with the rest of the
// system exclusively through messages. The placement state — tables or
// cache, random generator, logical clock, counters — lives in the policy;
// this node owns what is message-shaped: the pending-request set keyed by
// request ID, its recovery sweep and expiry timers, the virtual-time trace
// stamps and the reply routing.
package proxy

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/sim"
)

// Config assembles one proxy node.
type Config struct {
	// ID is the proxy's node ID (0-based).
	ID ids.NodeID
	// Policy makes the proxy's placement decisions; the node owns it.
	Policy protocol.Policy
	// Recovery enables pending-entry TTL expiry and stale-location
	// invalidation (the zero value keeps the paper-faithful protocol,
	// where pending entries only retire via backwarding replies).
	Recovery sim.Recovery
}

// pendingPass is the loop-detection state for one in-flight request ID:
// how many forwarding passes await their backwarding reply, and — with
// recovery enabled — when the entry expires and which learned location the
// latest pass trusted (so an unanswered forward can demote it).
type pendingPass struct {
	expireAt int64
	obj      ids.ObjectID
	learned  ids.NodeID
	count    int32
}

// expiryRec is one scheduled pending-entry expiry check. Records enter the
// queue in expireAt order (the virtual clock is monotonic and the TTL is
// constant), so a plain FIFO suffices — no heap, no map iteration, fully
// deterministic.
type expiryRec struct {
	id ids.RequestID
	at int64
}

// sweepTimer is the proxy's private pending-expiry timer message. The
// proxy keeps at most one armed sweep; the timer drives virtual time
// forward past the last request, so even passes stranded at the very end
// of a run expire and PendingLen drains to zero.
type sweepTimer struct{ to ids.NodeID }

// Dest implements msg.Message.
func (t *sweepTimer) Dest() ids.NodeID { return t.to }

// ADC is one proxy node on a simulator engine — the only one: ADC and every
// baseline differ in the Policy it drives, not in the node.
type ADC struct {
	id     ids.NodeID
	policy protocol.Policy

	// pending counts, per in-flight request ID, how many times this
	// proxy has forwarded it and not yet seen the reply pass back. A
	// request arriving while pending is a loop (§III.1). Counts (not
	// booleans) handle self-forwarding, where the same proxy legally
	// appears twice on the path. Every stored pass has count ≥ 1.
	pending ids.ReqTable[pendingPass]

	// recovery state: the FIFO of expiry checks (head-indexed so pops
	// are O(1) without reallocating) and the single armed sweep timer.
	recovery   sim.Recovery
	expiryQ    []expiryRec
	expiryHead int
	sweep      *sweepTimer
	sweepArmed bool

	// tracer is the optional request tracer (nil = off; every guard is a
	// single branch on the hot path).
	tracer *obs.Tracer
}

var (
	_ sim.Isolated    = (*ADC)(nil)
	_ sim.Restartable = (*ADC)(nil)
)

// New builds a proxy node around its policy.
func New(cfg Config) (*ADC, error) {
	if !cfg.ID.IsProxy() {
		return nil, fmt.Errorf("proxy: %v is not a proxy ID", cfg.ID)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("proxy %v: no placement policy", cfg.ID)
	}
	cfg.Recovery = cfg.Recovery.Normalize()
	if err := cfg.Recovery.Validate(); err != nil {
		return nil, fmt.Errorf("proxy %v: %w", cfg.ID, err)
	}
	return &ADC{
		id:       cfg.ID,
		policy:   cfg.Policy,
		recovery: cfg.Recovery,
		sweep:    &sweepTimer{to: cfg.ID},
	}, nil
}

// ID implements sim.Node.
func (p *ADC) ID() ids.NodeID { return p.id }

// Isolated implements sim.Isolated. A handler reads and writes the node's
// pending passes, recovery queue and policy — an ADC agent's tables, random
// source and counters, or a baseline's cache and counters — and nothing
// else: peers are reached by message only, and what policies share is
// fixed for the run (CARP's hasher, the consistent-hashing ring, the peer
// lists they copied). Another node reads the node only through Prefetch,
// which reads only what is fixed for the run.
func (p *ADC) Isolated() bool { return true }

// Policy returns the placement policy the node drives.
func (p *ADC) Policy() protocol.Policy { return p.policy }

// SetTracer installs the request tracer (before the run starts).
func (p *ADC) SetTracer(t *obs.Tracer) { p.tracer = t }

// Stats returns a snapshot of the proxy's counters.
func (p *ADC) Stats() metrics.ProxyStats { return *p.policy.Counters() }

// PendingLen returns the number of in-flight forwarded requests (tests
// assert it drains to zero — invariant 4 of DESIGN.md §10).
func (p *ADC) PendingLen() int { return p.pending.Len() }

// Restart implements sim.Restartable: a fail-stop restart always loses the
// volatile request state (pending passes and the armed sweep timer died
// with the process; live chains elsewhere will surface as unexpected
// replies) and whatever the policy counts as volatile; a cold restart
// additionally loses its tables or cache.
func (p *ADC) Restart(loseTables bool) {
	p.pending.Release()
	p.expiryQ = nil
	p.expiryHead = 0
	p.sweepArmed = false
	p.policy.Restart(loseTables)
}

// Release hands the pending-pass cells and an ADC agent's tables to later
// runs; call it once nothing reads the tables or PendingLen again.
func (p *ADC) Release() {
	p.pending.Release()
	if a, ok := p.policy.(*protocol.Agent); ok {
		a.Tables().Release()
	}
}

// Prefetch hints that obj is about to be requested: an ADC agent starts
// loading its tables' line for obj (core.Tables.Prefetch). No state or
// result changes; other policies ignore it. It reads only what is fixed for
// the run, so any node's handler may call it while this one's runs.
func (p *ADC) Prefetch(obj ids.ObjectID) {
	if a, ok := p.policy.(*protocol.Agent); ok {
		a.Tables().Prefetch(obj)
	}
}

// Handle implements sim.Node.
func (p *ADC) Handle(ctx sim.Context, m msg.Message) {
	switch t := m.(type) {
	case *msg.Request:
		p.receiveRequest(ctx, t)
	case *msg.Reply:
		p.receiveReply(ctx, t)
	case *sweepTimer:
		p.handleSweep(ctx)
	}
}

// backwardHop is the last proxy on a recorded forwarding path — the node a
// reply travelling it visits next — or None when the path is empty and the
// next hop is the client. It is the recent requester a replica push targets.
func backwardHop(path []ids.NodeID) ids.NodeID {
	if n := len(path); n > 0 {
		return path[n-1]
	}
	return ids.None
}

// setAdvert copies a replica advertisement into the reply (the agent's set
// aliases table memory; the reply keeps its own array).
func setAdvert(rep *msg.Reply, adv protocol.Advert) {
	rep.Replicate = adv.Replicate
	rep.Replicas = append(rep.Replicas[:0], adv.Replicas...)
	rep.AvgHint = adv.AvgHint
}

// receiveRequest drives the paper's Receive_Request() (Fig. 5).
func (p *ADC) receiveRequest(ctx sim.Context, req *msg.Request) {
	hit, outcome, adv := p.policy.Arrive(req.Object, backwardHop(req.Path))
	if hit {
		// Local hit: start backwarding immediately.
		if p.tracer.Enabled(obs.KindHit) {
			e := obs.Ev(obs.KindHit, p.id)
			e.At = ctx.VNow()
			e.Req = req.ID
			e.Obj = req.Object
			e.Loc = p.id
			e.Hops = int32(req.Hops)
			e.Arg = outcome
			p.tracer.Emit(e)
		}
		rep := sim.Resolve(ctx, req)
		rep.Resolver = p.id
		rep.Cached = true
		setAdvert(rep, adv)
		next, _ := rep.NextBackward()
		rep.To = next
		ctx.Send(rep)
		return
	}

	// Miss: loop detection looks at the state before this arrival, then
	// Store_Backwarding registers the pass so the reply can retrace it —
	// unless the policy handed the request over for good, in which case
	// the reply bypasses this proxy and there is nothing to wait for.
	looped := p.pending.Find(req.ID) != nil
	to, reason := p.policy.Route(req.Object, looped, req.AtMaxHops(), !req.Sender.IsProxy(), nil)
	req.Sender = p.id
	req.To = to
	if reason != obs.ReasonHashed {
		req.Path = append(req.Path, p.id)
	}
	// No client mints request ID 0 (the pending table reserves it for
	// empty cells), so a request forged with it is relayed without a pass.
	if reason != obs.ReasonHashed && req.ID != 0 {
		pass := p.pending.Upsert(req.ID)
		pass.count++
		if p.recovery.Enabled {
			// Remember which learned location this pass trusted, so an
			// unanswered forward can demote it.
			pass.obj = req.Object
			pass.learned = ids.None
			if reason == obs.ReasonLearned {
				pass.learned = to
			}
			pass.expireAt = ctx.VNow() + p.recovery.PendingTTL
			p.pushExpiry(ctx, req.ID, pass.expireAt)
		}
	}

	if p.tracer.Enabled(obs.KindForward) {
		e := obs.Ev(obs.KindForward, p.id)
		e.At = ctx.VNow()
		e.Req = req.ID
		e.Obj = req.Object
		e.To = to
		e.Hops = int32(req.Hops)
		e.Arg = reason
		p.tracer.Emit(e)
	}
	ctx.Send(req)
}

// receiveReply drives the paper's Receive_Reply() (Fig. 7).
func (p *ADC) receiveReply(ctx sim.Context, rep *msg.Reply) {
	// Defensive: a reply whose pending pass is gone — expired by the
	// recovery TTL, arriving at a restarted proxy, or a duplicate from a
	// retransmitted chain — is counted and must never underflow or
	// resurrect loop-detection state. It still carries real data, so the
	// table update and the backwarding forward below proceed normally
	// (routing needs only the reply's own path).
	pass := p.pending.Find(rep.ID)
	if pass == nil {
		p.policy.Counters().UnexpectedReplies++
	}

	l := p.policy.Learn(rep.Object, rep.Resolver, rep.Cached, backwardHop(rep.Path),
		protocol.Advert{Replicate: rep.Replicate, Replicas: rep.Replicas, AvgHint: rep.AvgHint})
	rep.Resolver = l.Resolver
	rep.Cached = l.Cached
	setAdvert(rep, l.Advert)

	// Retire one stored backwarding pass (Learn leaves pending alone, so
	// the pointer is still the pass's cell).
	if pass != nil {
		if pass.count > 1 {
			pass.count--
		} else {
			p.pending.Delete(rep.ID)
		}
	}

	next, _ := rep.NextBackward()
	rep.To = next
	if p.tracer.Enabled(obs.KindBackward) {
		e := obs.Ev(obs.KindBackward, p.id)
		e.At = ctx.VNow()
		e.Req = rep.ID
		e.Obj = rep.Object
		e.To = next
		e.Loc = l.Location
		e.Hops = int32(rep.Hops)
		e.Arg = l.Outcome
		p.tracer.Emit(e)
	}
	ctx.Send(rep)
}

// pushExpiry queues one expiry check and arms the sweep timer when none is
// armed. Queue order equals expireAt order, so the armed timer always
// covers the head record.
func (p *ADC) pushExpiry(ctx sim.Context, id ids.RequestID, at int64) {
	p.expiryQ = append(p.expiryQ, expiryRec{id: id, at: at})
	if !p.sweepArmed {
		ctx.After(p.recovery.PendingTTL, p.sweep)
		p.sweepArmed = true
	}
}

// handleSweep fires the armed expiry timer: retire everything due, then
// re-arm for the next queued record (if any). The sweep chain keeps the
// engine's event queue alive until all pending state has drained.
func (p *ADC) handleSweep(ctx sim.Context) {
	p.sweepArmed = false
	if !p.recovery.Enabled {
		return
	}
	now := ctx.VNow()
	p.expirePending(now)
	if p.expiryHead < len(p.expiryQ) {
		d := p.expiryQ[p.expiryHead].at - now
		if d < 1 {
			d = 1
		}
		ctx.After(d, p.sweep)
		p.sweepArmed = true
	}
}

// expirePending retires every pending entry due at now. An entry whose
// expireAt is newer than its queued record was refreshed by a later pass —
// the later record is still queued and will judge it then. Expired entries
// surrender all passes at once (the chain is dead; partial retirement
// would leave the remainder leaking), and when the latest pass had trusted
// a learned location that the tables still hold, that mapping is demoted:
// the unanswered forward is evidence the location is stale (crashed or
// unreachable), and dropping it falls forwarding back to random selection
// so backwarding can re-converge on a live resolver.
func (p *ADC) expirePending(now int64) {
	for p.expiryHead < len(p.expiryQ) && p.expiryQ[p.expiryHead].at <= now {
		rec := p.expiryQ[p.expiryHead]
		p.popExpiry()
		live := p.pending.Find(rec.id)
		if live == nil || live.expireAt > now {
			continue
		}
		pass := *live
		p.pending.Delete(rec.id)
		p.policy.Counters().ExpiredPending += uint64(pass.count)
		if p.tracer.Enabled(obs.KindExpire) {
			e := obs.Ev(obs.KindExpire, p.id)
			e.At = now
			e.Req = rec.id
			e.Obj = pass.obj
			e.Arg = int64(pass.count)
			p.tracer.Emit(e)
		}
		if p.policy.Distrust(pass.obj, pass.learned) && p.tracer.Enabled(obs.KindInvalidate) {
			e := obs.Ev(obs.KindInvalidate, p.id)
			e.At = now
			e.Req = rec.id
			e.Obj = pass.obj
			e.Loc = pass.learned
			p.tracer.Emit(e)
		}
	}
}

// popExpiry advances the queue head, compacting the backing slice once
// half of it is dead so memory stays bounded without per-pop copying.
func (p *ADC) popExpiry() {
	p.expiryHead++
	if p.expiryHead >= 64 && p.expiryHead*2 >= len(p.expiryQ) {
		n := copy(p.expiryQ, p.expiryQ[p.expiryHead:])
		p.expiryQ = p.expiryQ[:n]
		p.expiryHead = 0
	}
}
