package sim

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/obs"
)

// LatencyModel assigns a virtual-time cost to every message transfer. The
// units are abstract ticks; the experiments use microseconds so results
// read naturally. The paper counts hops precisely because "a hop is
// regarded as the message transfer" (§V.2.2) — a latency model turns those
// hop counts into the response times the paper discusses qualitatively
// ("ADC has longer systems response than the hashing algorithm").
type LatencyModel struct {
	// ClientProxy is the client↔proxy link latency.
	ClientProxy int64
	// ProxyProxy is the proxy↔proxy link latency.
	ProxyProxy int64
	// ProxyOrigin is the proxy↔origin link latency (usually the far,
	// expensive one).
	ProxyOrigin int64
	// Service is the per-message processing delay at the receiver.
	Service int64

	// QueueService, when true, serializes the Service component per
	// receiving node: a node processes one message at a time, so a node
	// whose arrival rate exceeds 1/Service messages per tick builds a
	// backlog and its response times grow — saturation, which the
	// default additive Service cost cannot express. An uncontended
	// message still pays exactly Service, so closed-loop single-client
	// runs are identical either way; the flag exists for open-loop
	// load-vs-latency studies (hot-proxy and origin bottlenecks).
	// Timer events (After) are not queued, only network transfers.
	QueueService bool
}

// DefaultLatencyModel is a WAN-flavoured model: proxies near the clients,
// the origin far away.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		ClientProxy: 5_000,  // 5 ms
		ProxyProxy:  10_000, // 10 ms
		ProxyOrigin: 50_000, // 50 ms
		Service:     100,    // 0.1 ms
	}
}

// cost returns the virtual delay for a transfer from a to b and the link
// class that priced it, which is the event-queue lane the transfer rides.
func (l LatencyModel) cost(a, b ids.NodeID) (delay int64, lane int) {
	switch {
	case a == ids.Origin || b == ids.Origin:
		return l.ProxyOrigin + l.Service, laneOrigin
	case a.IsClient() || b.IsClient():
		return l.ClientProxy + l.Service, laneClient
	default:
		return l.ProxyProxy + l.Service, laneProxy
	}
}

// Clock is implemented by contexts that carry virtual time; nodes that
// measure latency (the clients) type-assert for it.
type Clock interface {
	// VNow returns the current virtual time in ticks.
	VNow() int64
}

// Scheduler is implemented by contexts that can deliver a message to the
// calling node after a virtual delay; open-loop traffic sources use it as
// their timer.
type Scheduler interface {
	// After delivers m at VNow()+delay.
	After(delay int64, m msg.Message)
}

// VEngine is the virtual-time discrete-event engine: messages are delivered
// in (timestamp, enqueue sequence) order, each transfer delayed by the
// latency model. It is fully deterministic, and its results — every byte,
// with every feature on — do not depend on how many shards it runs on.
// DESIGN.md §7 has the full argument; in short:
//
// Every node is owned by one shard (ids.ShardMap), each with a private
// event queue (one FIFO lane per link class plus a 4-ary heap for timers,
// see eventQueue) and message freelist. The engine repeatedly finds the
// minimum pending timestamp t and delivers the cohort of events queued at t.
// A cohort on one shard — every cohort of a one-shard engine, nearly every
// cohort of a closed-loop run — executes inline on the coordinator with the
// engine direct: a Send takes the next sequence number and goes straight
// into the destination queue, a classic sequential event loop. A cohort
// spread over several shards fans out to their workers, which is safe
// because handlers only touch their own node's state (the Node contract
// all in-repo agents follow). Its Sends are buffered per shard as (parent
// sequence, emission index) pairs and merged afterwards in that order,
// which is exactly the order a one-shard run makes them in. So whatever
// depends on Send order happens in one function, admit, on the
// coordinator: the drop filter is consulted, the fault plan's single random
// stream draws loss → link loss → jitter, and survivors take consecutive
// sequence numbers. Identical (at, seq) pairs on every event mean identical
// delivery order. Lossless merges of parallelMergeMin emissions or more are
// ranked and pushed by the workers, with the same sequence values.
//
// What a delivery reads or writes is keyed by destination and lives on the
// destination's shard: the fail-stop down set, the crash counters, the
// QueueService busy horizon. What cannot be partitioned is an observer
// shared by all nodes: with a tracer or time-series recorder installed (or
// after Serialize) a multi-shard cohort is executed on the coordinator, one
// event at a time in ascending sequence order across the shard heads — a
// mode derived from what is installed, never configured.
type VEngine struct {
	latency LatencyModel
	part    ids.ShardMap
	nodes   ids.Table[Node] // written only while one handler runs at a time
	shards  []*shard
	active  []*shard // Run's cohort scratch, sized once

	// now is the current cohort's timestamp and seq the global enqueue
	// counter. Only the coordinator writes them: now between cohorts, seq
	// at each Send while direct and at the merge otherwise.
	now int64
	seq uint64

	// direct is true while at most one handler runs at a time, in global
	// delivery order (Start, inline and ordered cohorts): an emission is
	// admitted the moment it is made. It is false only while a cohort is
	// fanned out, when emissions are buffered for the merge.
	direct bool

	// drop, when set, discards matching Sends — fault injection for
	// probing the paper's §III.1 assumption that "we don't expect the loss
	// of messages". Timer events (After) are never dropped; only network
	// transfers are. Dropped messages are never recycled: the sender may
	// still reference them (see Recycler).
	drop func(m msg.Message) bool

	// faults, when set, is the installed FaultPlan's loss/jitter stream.
	// nil keeps every code path byte-identical to a plan-free engine.
	faults *faultState

	// dropped counts Sends that died at admission (filter, loss); crash
	// drops are counted per shard.
	dropped uint64

	// tracer records drop events (the engine is the only layer that sees
	// a message die); ts feeds the drop counter of the time-series
	// recorder. Both nil by default: one branch each on the drop paths,
	// nothing on the delivery path.
	tracer *obs.Tracer
	ts     *metrics.TimeSeries

	serial bool // set by Serialize
}

// parallelMergeMin is the cohort emission count below which the serial
// S-way merge on the coordinator beats the two extra barrier rounds of the
// parallel rank+push path. It is a variable only so tests can force the
// parallel path on small workloads; both paths assign identical sequence
// numbers, so the setting never affects results.
var parallelMergeMin = 2048

// NewVEngine returns an empty one-shard engine: the sequential run.
func NewVEngine(latency LatencyModel) *VEngine {
	part, _ := ids.NewShardMap(1, 1) // cannot fail
	return NewShardedVEngine(latency, part)
}

// NewShardedVEngine returns an empty engine whose nodes are spread over the
// partition's shards. Results are identical at every shard count.
func NewShardedVEngine(latency LatencyModel, part ids.ShardMap) *VEngine {
	e := &VEngine{latency: latency, part: part, direct: true}
	e.shards = make([]*shard, part.Shards())
	e.active = make([]*shard, 0, len(e.shards))
	for i := range e.shards {
		s := &shard{
			eng:     e,
			idx:     i,
			current: ids.None,
			cmd:     make(chan pcmd, 1),
			done:    make(chan struct{}, 1),
		}
		if latency.QueueService {
			s.busy = make(map[ids.NodeID]int64)
		}
		e.shards[i] = s
	}
	return e
}

// Register adds a node. The owning shard is derived from the partition.
// Registering during a run is only safe from a handler that runs alone
// (see Serialize).
func (e *VEngine) Register(n Node) error {
	if !e.nodes.Put(n.ID(), n) {
		return fmt.Errorf("sim: duplicate node %v", n.ID())
	}
	return nil
}

// SetDropFilter installs a deterministic loss model: any Send for which fn
// returns true is silently discarded. fn is consulted once per Send, in
// Send order. The closed-loop protocol has no retransmission (the paper
// assumes lossless transport), so dropping a message strands its request
// chain — which is exactly what the fault-injection tests demonstrate.
func (e *VEngine) SetDropFilter(fn func(m msg.Message) bool) { e.drop = fn }

// SetTracer installs the request tracer (before Run). The engine itself
// only emits drop events; the protocol steps are traced by the nodes.
func (e *VEngine) SetTracer(t *obs.Tracer) { e.tracer = t }

// SetTimeSeries installs the time-series recorder the engine feeds drop
// counts into (before Run).
func (e *VEngine) SetTimeSeries(ts *metrics.TimeSeries) { e.ts = ts }

// Serialize makes the engine execute every cohort one handler at a time in
// global delivery order — what an installed tracer or time-series recorder
// already implies. It is for runs whose handlers reach beyond their own
// node: the cluster's churn hook registers a proxy and rewrites every peer
// set from inside the client's handler.
func (e *VEngine) Serialize() { e.serial = true }

// SetFaultPlan installs a deterministic failure model (loss, jitter,
// fail-stop crashes). Must be called before Run; a nil plan is a no-op.
func (e *VEngine) SetFaultPlan(p *FaultPlan) error {
	if p == nil {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	e.faults = newFaultState(p)
	for _, s := range e.shards {
		s.down = make(map[ids.NodeID]bool)
	}
	return nil
}

// FaultStats returns the installed plan's counters (zero without a plan).
// Call it only after Run has returned.
func (e *VEngine) FaultStats() FaultStats {
	if e.faults == nil {
		return FaultStats{}
	}
	st := e.faults.stats
	for _, s := range e.shards {
		st.CrashDrops += s.crash.CrashDrops
		st.Crashes += s.crash.Crashes
		st.Restarts += s.crash.Restarts
	}
	return st
}

// Dropped returns the number of discarded messages — drop-filter hits,
// fault-plan losses, and deliveries addressed to crashed nodes. In a run
// without retransmission every dropped transfer is an undelivered in-flight
// message whose request chain is stranded. Call it only after Run has
// returned.
func (e *VEngine) Dropped() uint64 {
	n := e.dropped
	for _, s := range e.shards {
		n += s.crash.CrashDrops
	}
	return n
}

// Delivered returns the number of delivered messages, summed across
// shards. Call it only after Run has returned.
func (e *VEngine) Delivered() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.delivered
	}
	return n
}

// The engine is itself a context — shard 0 with no current node — so code
// outside any handler (pre-run injection, tests) can send, set timers and
// use the freelist.
var (
	_ Context   = (*VEngine)(nil)
	_ Clock     = (*VEngine)(nil)
	_ Scheduler = (*VEngine)(nil)
	_ Recycler  = (*VEngine)(nil)
)

func (e *VEngine) VNow() int64                      { return e.now }
func (e *VEngine) Send(m msg.Message)               { e.shards[0].Send(m) }
func (e *VEngine) After(delay int64, m msg.Message) { e.shards[0].After(delay, m) }
func (e *VEngine) AcquireRequest() *msg.Request     { return e.shards[0].AcquireRequest() }
func (e *VEngine) AcquireReply() *msg.Reply         { return e.shards[0].AcquireReply() }
func (e *VEngine) ReleaseRequest(r *msg.Request)    { e.shards[0].ReleaseRequest(r) }
func (e *VEngine) ReleaseReply(r *msg.Reply)        { e.shards[0].ReleaseReply(r) }

// shardIdx maps a node to its owning shard.
func (e *VEngine) shardIdx(id ids.NodeID) int {
	if len(e.shards) == 1 {
		return 0
	}
	return e.part.ShardOf(id)
}

// admit is the one place an emission enters a queue, and it runs on the
// coordinator in Send order: immediately while direct, at the merge
// otherwise. A network transfer — an emission on a link lane — is screened
// first (see screen); whatever survives takes the next sequence number.
func (e *VEngine) admit(from ids.NodeID, at int64, m msg.Message, lane, dest int) {
	net := lane != laneHeap
	if net && (e.drop != nil || e.faults != nil) {
		var ok bool
		if at, ok = e.screen(from, at, m); !ok {
			return
		}
	}
	e.seq++
	e.shards[dest].pq.push(event{at: at, seq: e.seq, m: m, net: net}, lane)
}

// screen passes one Send through the drop filter and then the fault plan,
// returning its (possibly jittered) delivery time and whether it survives.
// Because admit calls it in Send order, the filter's view and the plan's
// draws are a pure function of the Send sequence at every shard count.
func (e *VEngine) screen(from ids.NodeID, at int64, m msg.Message) (int64, bool) {
	if e.drop != nil && e.drop(m) {
		e.dropped++
		e.traceDrop(from, m, obs.DropFilter)
		return 0, false
	}
	if e.faults != nil {
		var ok bool
		if at, ok = e.faults.transfer(from, m.Dest(), at); !ok {
			// Lost on the wire. Like drop-filter hits, lost messages are
			// never recycled: the sender may still hold them.
			e.dropped++
			e.traceDrop(from, m, obs.DropLoss)
			return 0, false
		}
	}
	return at, true
}

// traceDrop records the death of an in-flight protocol message. Timer
// messages (retry timers, sweep ticks) are not protocol steps and are
// skipped. With neither observer installed it does nothing, which is what
// makes it callable from a fanned-out cohort.
func (e *VEngine) traceDrop(sender ids.NodeID, m msg.Message, cause int64) {
	if e.ts != nil {
		e.ts.Drop(e.now)
	}
	if !e.tracer.Enabled(obs.KindDrop) {
		return
	}
	ev := obs.Ev(obs.KindDrop, sender)
	ev.At = e.now
	ev.To = m.Dest()
	ev.Arg = cause
	switch t := m.(type) {
	case *msg.Request:
		ev.Req, ev.Obj, ev.Hops = t.ID, t.Object, int32(t.Hops)
	case *msg.Reply:
		ev.Req, ev.Obj, ev.Hops = t.ID, t.Object, int32(t.Hops)
	default:
		return
	}
	e.tracer.Emit(ev)
}

// Run starts the Starter nodes in ascending NodeID order and then processes
// timestamp cohorts until every shard's queue drains, advancing virtual
// time monotonically.
func (e *VEngine) Run() error {
	if e.faults != nil {
		// Crash/restart transitions enter the queue before any starter
		// event, so at equal timestamps a fault applies before the
		// messages scheduled later — a deterministic tie-break.
		for _, c := range e.faults.plan.Crashes {
			dest := e.shardIdx(c.Node)
			e.admit(ids.None, c.At, &faultCtl{node: c.Node}, laneHeap, dest)
			if c.RestartAt > 0 {
				e.admit(ids.None, c.RestartAt, &faultCtl{node: c.Node, restart: true, loseTables: c.LoseTables}, laneHeap, dest)
			}
		}
	}
	e.nodes.Ascending(func(id ids.NodeID, n Node) {
		if st, ok := n.(Starter); ok {
			s := e.shards[e.shardIdx(id)]
			s.current = id
			st.Start(s)
			s.current = ids.None
		}
	})

	ordered := e.tracer != nil || e.ts != nil || e.serial
	fanOut := len(e.shards) > 1 && !ordered
	if fanOut {
		for _, s := range e.shards {
			go s.loop()
		}
		defer func() {
			for _, s := range e.shards {
				close(s.cmd)
			}
		}()
	}

	active := e.active[:0]
	for {
		// Cohort pick: the shards whose head carries the minimum pending
		// timestamp.
		var t int64
		active = active[:0]
		for _, s := range e.shards {
			if s.pq.Len() == 0 {
				continue
			}
			switch h := s.pq.peek().at; {
			case len(active) == 0 || h < t:
				t, active = h, append(active[:0], s)
			case h == t:
				active = append(active, s)
			}
		}
		if len(active) == 0 {
			return nil
		}
		e.now = t
		// The cohort is what is queued at t now; zero-delay emissions take
		// sequence numbers above limit and form the follow-up cohort.
		limit := e.seq

		if len(active) == 1 {
			// Inline on this goroutine: the whole of a sequential run.
			s := active[0]
			if s.exec(t, limit); s.err != nil {
				return s.err
			}
			continue
		}
		if ordered {
			// On this goroutine, one event per pick: the smallest sequence
			// number among the active heads is the next in global order.
			next := active[0]
			for _, s := range active[1:] {
				if s.pq.peek().seq < next.pq.peek().seq {
					next = s
				}
			}
			if !next.step() {
				return next.err
			}
			continue
		}
		e.direct = false
		for _, s := range active {
			s.cmd <- pcmd{phase: phaseExec, t: t, base: limit}
		}
		for _, s := range active {
			<-s.done
		}
		e.direct = true
		for _, s := range active {
			if s.err != nil {
				return s.err
			}
		}
		e.merge(active)
	}
}

// merge admits a fanned-out cohort's buffered emissions into the shard
// queues in the order a one-shard run would have made them.
func (e *VEngine) merge(active []*shard) {
	total := 0
	for _, s := range active {
		total += len(s.emits)
	}
	if total == 0 {
		return
	}
	if e.drop != nil || e.faults != nil || total < parallelMergeMin {
		e.mergeSerial(active)
		return
	}
	base := e.seq + 1
	for _, s := range e.shards {
		s.cmd <- pcmd{phase: phaseRank, base: base}
	}
	for _, s := range e.shards {
		<-s.done
	}
	for _, s := range e.shards {
		s.cmd <- pcmd{phase: phasePush}
	}
	for _, s := range e.shards {
		<-s.done
	}
	e.seq += uint64(total)
	for _, s := range active {
		// Keep the capacity; stale message pointers in the spare slots
		// alias freelist entries and are overwritten next cohort.
		s.emits = s.emits[:0]
	}
}

// mergeSerial drains the cohort's emission buffers in (pseq, emission
// index) order through admit. pseq values are globally unique (each parent
// event executes on exactly one shard), so picking the smallest head is a
// total, deterministic order.
func (e *VEngine) mergeSerial(active []*shard) {
	for {
		var best *shard
		for _, s := range active {
			if s.mergeHead < len(s.emits) {
				if best == nil || s.emits[s.mergeHead].pseq < best.emits[best.mergeHead].pseq {
					best = s
				}
			}
		}
		if best == nil {
			break
		}
		em := &best.emits[best.mergeHead]
		best.mergeHead++
		e.admit(em.from, em.at, em.m, int(em.lane), int(em.dest))
		em.m = nil
	}
	for _, s := range active {
		s.mergeHead = 0
		s.emits = s.emits[:0]
	}
}
