// Package proxy is the simulator driver of the ADC protocol core
// (internal/protocol): a sim.Node that turns request and reply messages into
// the core's Arrive / Route / Learn events and carries out what they decide.
//
// Each proxy is an autonomous agent that interacts with the rest of the
// system exclusively through messages. The protocol state — tables, random
// generator, logical clock, counters, replication controller — lives in the
// core; this adapter owns what is message-shaped: the pending-request set
// keyed by request ID, its recovery sweep and expiry timers, and the
// virtual-time trace stamps.
package proxy

import (
	"fmt"
	"slices"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/sim"
)

// Config assembles one ADC proxy.
type Config struct {
	// ID is the proxy's node ID (0-based).
	ID ids.NodeID
	// Peers lists every proxy in the system including this one; random
	// forwarding selects "over the set of known proxies including
	// itself" (Fig. 6).
	Peers []ids.NodeID
	// Tables sizes the three mapping tables.
	Tables core.Config
	// Seed derives the proxy's private random stream. Two proxies in
	// one cluster receive different streams (the cluster XORs the ID in).
	Seed int64
	// Recovery enables pending-entry TTL expiry and stale-location
	// invalidation (virtual-time engine only; the zero value keeps the
	// paper-faithful protocol, where pending entries only retire via
	// backwarding replies).
	Recovery sim.Recovery
	// Replication enables the hot-object replication controller (the
	// zero value keeps the paper-faithful single-location protocol).
	Replication protocol.Replication
}

// pendingPass is the loop-detection state for one in-flight request ID:
// how many forwarding passes await their backwarding reply, and — with
// recovery enabled — when the entry expires and which learned location the
// latest pass trusted (so an unanswered forward can demote it).
type pendingPass struct {
	count    int
	expireAt int64
	obj      ids.ObjectID
	learned  ids.NodeID
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

// ADC is one Adaptive Distributed Caching proxy agent on a simulator engine.
type ADC struct {
	id   ids.NodeID
	core *protocol.Agent

	// pending counts, per in-flight request ID, how many times this
	// proxy has forwarded it and not yet seen the reply pass back. A
	// request arriving while pending is a loop (§III.1). Counts (not
	// booleans) handle self-forwarding, where the same proxy legally
	// appears twice on the path.
	pending map[ids.RequestID]pendingPass

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
	_ sim.Node        = (*ADC)(nil)
	_ sim.Restartable = (*ADC)(nil)
)

// New builds an ADC proxy.
func New(cfg Config) (*ADC, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("proxy: peer set must not be empty")
	}
	cfg.Recovery = cfg.Recovery.Normalize()
	if err := cfg.Recovery.Validate(); err != nil {
		return nil, fmt.Errorf("proxy %v: %w", cfg.ID, err)
	}
	agent, err := protocol.New(protocol.Config{
		ID:          cfg.ID,
		Peers:       cfg.Peers,
		Tables:      cfg.Tables,
		Seed:        cfg.Seed,
		Replication: cfg.Replication,
	})
	if err != nil {
		return nil, err
	}
	return &ADC{
		id:       cfg.ID,
		core:     agent,
		pending:  make(map[ids.RequestID]pendingPass),
		recovery: cfg.Recovery,
		sweep:    &sweepTimer{to: cfg.ID},
	}, nil
}

// ID implements sim.Node.
func (p *ADC) ID() ids.NodeID { return p.id }

// AddPeer introduces a newly joined proxy to the random-forwarding peer
// set (infrastructure growth, the paper's unused §V.1 parameter). Safe only
// between messages — i.e. from the sequential engine's driving thread.
func (p *ADC) AddPeer(id ids.NodeID) {
	if peers := p.core.Peers(); !slices.Contains(peers, id) {
		p.core.SetPeers(append(slices.Clone(peers), id))
	}
}

// Tables exposes the mapping tables for dumps, tests and metrics.
func (p *ADC) Tables() *core.Tables { return p.core.Tables() }

// SetTracer installs the request tracer (before the run starts).
func (p *ADC) SetTracer(t *obs.Tracer) { p.tracer = t }

// Stats returns a snapshot of the proxy's counters.
func (p *ADC) Stats() metrics.ProxyStats { return p.core.Stats }

// LocalTime returns the proxy's logical clock.
func (p *ADC) LocalTime() int64 { return p.core.LocalTime() }

// PendingLen returns the number of in-flight forwarded requests (tests
// assert it drains to zero — invariant 4 of DESIGN.md §10).
func (p *ADC) PendingLen() int { return len(p.pending) }

// Restart implements sim.Restartable: a fail-stop restart always loses the
// volatile request state (pending passes and the armed sweep timer died
// with the process; live chains elsewhere will surface as unexpected
// replies) and whatever the protocol core counts as volatile; a cold restart
// additionally rebuilds the mapping tables empty.
func (p *ADC) Restart(loseTables bool) {
	p.pending = make(map[ids.RequestID]pendingPass)
	p.expiryQ = nil
	p.expiryHead = 0
	p.sweepArmed = false
	p.core.Restart(loseTables)
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
	hit, outcome, adv := p.core.Arrive(req.Object, backwardHop(req.Path))
	if hit {
		// Local hit: start backwarding immediately.
		if p.tracer.Enabled(obs.KindHit) {
			e := obs.Ev(obs.KindHit, p.id)
			e.At = sim.TraceNow(ctx)
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
	// Store_Backwarding registers the pass so the reply can retrace it.
	pass := p.pending[req.ID]
	to, reason := p.core.Route(req.Object, pass.count > 0, req.AtMaxHops(), !req.Sender.IsProxy(), nil)
	req.Path = append(req.Path, p.id)
	req.Sender = p.id

	pass.count++
	if p.recovery.Enabled {
		// Remember which learned location this pass trusted, so an
		// unanswered forward can demote it.
		pass.obj = req.Object
		pass.learned = ids.None
		if reason == obs.ReasonLearned {
			pass.learned = to
		}
		if clk, ok := ctx.(sim.Clock); ok {
			pass.expireAt = clk.VNow() + p.recovery.PendingTTL
			p.pushExpiry(ctx, req.ID, pass.expireAt)
		}
	}
	p.pending[req.ID] = pass

	req.To = to
	if p.tracer.Enabled(obs.KindForward) {
		e := obs.Ev(obs.KindForward, p.id)
		e.At = sim.TraceNow(ctx)
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
	pass, live := p.pending[rep.ID]
	if !live {
		p.core.Stats.UnexpectedReplies++
	}

	l := p.core.Learn(rep.Object, rep.Resolver, rep.Cached, backwardHop(rep.Path),
		protocol.Advert{Replicate: rep.Replicate, Replicas: rep.Replicas, AvgHint: rep.AvgHint})
	rep.Resolver = l.Resolver
	rep.Cached = l.Cached
	setAdvert(rep, l.Advert)

	// Retire one stored backwarding pass.
	if live {
		if pass.count > 1 {
			pass.count--
			p.pending[rep.ID] = pass
		} else {
			delete(p.pending, rep.ID)
		}
	}

	next, _ := rep.NextBackward()
	rep.To = next
	if p.tracer.Enabled(obs.KindBackward) {
		e := obs.Ev(obs.KindBackward, p.id)
		e.At = sim.TraceNow(ctx)
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
		if sched, ok := ctx.(sim.Scheduler); ok {
			sched.After(p.recovery.PendingTTL, p.sweep)
			p.sweepArmed = true
		}
	}
}

// handleSweep fires the armed expiry timer: retire everything due, then
// re-arm for the next queued record (if any). The sweep chain keeps the
// engine's event queue alive until all pending state has drained.
func (p *ADC) handleSweep(ctx sim.Context) {
	p.sweepArmed = false
	clk, ok := ctx.(sim.Clock)
	if !ok || !p.recovery.Enabled {
		return
	}
	now := clk.VNow()
	p.expirePending(now)
	if p.expiryHead < len(p.expiryQ) {
		if sched, isSched := ctx.(sim.Scheduler); isSched {
			d := p.expiryQ[p.expiryHead].at - now
			if d < 1 {
				d = 1
			}
			sched.After(d, p.sweep)
			p.sweepArmed = true
		}
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
		pass, ok := p.pending[rec.id]
		if !ok || pass.expireAt > now {
			continue
		}
		delete(p.pending, rec.id)
		p.core.Stats.ExpiredPending += uint64(pass.count)
		if p.tracer.Enabled(obs.KindExpire) {
			e := obs.Ev(obs.KindExpire, p.id)
			e.At = now
			e.Req = rec.id
			e.Obj = pass.obj
			e.Arg = int64(pass.count)
			p.tracer.Emit(e)
		}
		if p.core.Distrust(pass.obj, pass.learned) && p.tracer.Enabled(obs.KindInvalidate) {
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
