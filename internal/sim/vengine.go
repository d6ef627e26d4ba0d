package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

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

// VEngine is the simulator's one engine, a discrete-event engine: messages
// are delivered in (timestamp, enqueue sequence) order, each transfer
// delayed by the latency model. It is fully deterministic. Under the zero
// LatencyModel a transfer is due the moment it is sent, so a run that arms
// no timer delivers in Send order.
//
// Every event sits in one eventQueue: one FIFO lane per link class plus a
// 4-ary heap for timers. Run executes one event at a time, on the calling
// goroutine, a classic sequential event loop. A Send takes the next
// sequence number and goes straight into the queue, so whatever depends on
// Send order happens in Send itself: the drop filter is consulted, the
// fault plan's single random stream draws loss → link loss → jitter, and
// survivors take consecutive sequence numbers. DESIGN.md §7 has the full
// argument.
//
// The engine is the Context every handler runs against; what a delivery
// reads or writes — the fail-stop down set, the QueueService busy horizon —
// is keyed by destination.
type VEngine struct {
	latency LatencyModel
	storage

	// nodes holds the registered nodes in registration order, slots each
	// node's index there (its slot), and shared counts the nodes that are
	// not Isolated: a lookahead window opens only while shared is 0.
	nodes  []registered
	slots  ids.Table[int32]
	shared int
	// inWindow is true while a lookahead window's handlers run.
	inWindow bool

	// now is the timestamp of the event being delivered and seq the
	// global enqueue counter.
	now int64
	seq uint64

	// current is the node whose Handle is executing, so Send can price the
	// link correctly (the sender is implicit in sim.Context); ids.None
	// outside any handler.
	current ids.NodeID

	// busy is the per-node service-completion horizon of the QueueService
	// model (nil when the model is off, which keeps the delivery path on
	// one nil check for the latency-only configuration).
	busy map[ids.NodeID]int64

	// down is the fail-stop set (nil without a fault plan).
	down map[ids.NodeID]bool

	// drop, when set, discards matching Sends — fault injection for
	// probing the paper's §III.1 assumption that "we don't expect the loss
	// of messages". Timer events (After) are never dropped; only network
	// transfers are. Dropped messages are never recycled: the sender may
	// still reference them (see Context).
	drop func(m msg.Message) bool

	// faults, when set, is the installed FaultPlan's loss/jitter stream
	// and counters. nil keeps every code path byte-identical to a
	// plan-free engine.
	faults *faultState

	// dropped counts discarded messages: Sends that died at admission
	// (filter, loss) and deliveries to crashed nodes.
	dropped   uint64
	delivered uint64

	// tracer records drop events (the engine is the only layer that sees
	// a message die); ts feeds the drop counter of the time-series
	// recorder. Both nil by default: one branch each on the drop paths,
	// nothing on the delivery path.
	tracer *obs.Tracer
	ts     *metrics.TimeSeries
}

// storage is what Release hands a later NewVEngine: the event lanes, the
// message freelist with its requests, replies and path arrays, and — once
// a run has opened a lookahead window — the helper goroutine's freelist and
// both goroutines' window logs.
type storage struct {
	q   eventQueue
	fl  msg.Freelist
	par *parStorage
}

// class is the size class released storage is kept under: the bit length
// of how many recycled messages its freelists hold.
func (s *storage) class() int {
	n := s.fl.Len()
	if s.par != nil {
		n += s.par.fl.Len()
	}
	return bits.Len(uint(n))
}

var (
	released ids.Pool[storage]
	// topClass is the largest class ever released, where NewVEngine's
	// search starts.
	topClass atomic.Int32
)

// NewVEngine returns an empty engine, on the largest released engine's
// storage when there is one: a run of many requests in flight takes the
// freelist such a run filled, whatever ran in between.
func NewVEngine(latency LatencyModel) *VEngine {
	e := &VEngine{latency: latency, current: ids.None}
	for c := int(topClass.Load()); c >= 0; c-- {
		if s, ok := released.Get(c); ok {
			e.storage = s
			break
		}
	}
	if latency.QueueService {
		e.busy = make(map[ids.NodeID]int64)
	}
	return e
}

// Release hands the engine's storage to a later NewVEngine, on any
// goroutine, once nothing reads a message it delivered; the counters stay
// readable. Only a drained queue's lanes are handed on: they hold no message.
func (e *VEngine) Release() {
	if e.q.Len() == 0 {
		c := int32(e.class())
		for {
			top := topClass.Load()
			if c <= top || topClass.CompareAndSwap(top, c) {
				break
			}
		}
		released.Put(int(c), e.storage)
	}
	e.storage = storage{}
}

// Register adds a node. A handler may register nodes during a run, outside
// a lookahead window: the cluster's churn hook adds a proxy from inside the
// client's handler, in a run of one closed-loop client, which never opens
// one.
func (e *VEngine) Register(n Node) error {
	if e.inWindow {
		panic(fmt.Sprintf("sim: node %v registered inside a lookahead window", n.ID()))
	}
	if !e.slots.Put(n.ID(), int32(len(e.nodes))) {
		return fmt.Errorf("sim: duplicate node %v", n.ID())
	}
	e.nodes = append(e.nodes, registered{n, n.ID()})
	if iso, ok := n.(Isolated); !ok || !iso.Isolated() {
		e.shared++
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
	e.down = make(map[ids.NodeID]bool)
	return nil
}

// FaultStats returns the installed plan's counters (zero without a plan).
func (e *VEngine) FaultStats() FaultStats {
	if e.faults == nil {
		return FaultStats{}
	}
	return e.faults.stats
}

// Dropped returns the number of discarded messages — drop-filter hits,
// fault-plan losses, and deliveries addressed to crashed nodes. In a run
// without retransmission every dropped transfer is an undelivered in-flight
// message whose request chain is stranded.
func (e *VEngine) Dropped() uint64 { return e.dropped }

// Delivered returns the number of delivered messages.
func (e *VEngine) Delivered() uint64 { return e.delivered }

// The engine is the context handlers run against; outside any handler
// (pre-run injection, tests) it is a context with no current node.
var _ Context = (*VEngine)(nil)

// VNow implements Context.
func (e *VEngine) VNow() int64 { return e.now }

// Send implements Context: the hop is counted, the transfer is screened
// (see screen) and, if it survives, takes the next sequence number and
// arrives after the modelled link latency.
func (e *VEngine) Send(m msg.Message) {
	CountHop(m)
	dest := m.Dest()
	delay, lane := e.latency.cost(e.current, dest)
	if e.busy != nil {
		// Queued service: the transfer pays only the link here; the
		// Service component is charged at delivery, serialized per
		// receiver.
		delay -= e.latency.Service
	}
	at := e.now + delay
	if e.drop != nil || e.faults != nil {
		var ok bool
		if at, ok = e.screen(e.current, at, m); !ok {
			return
		}
	}
	e.seq++
	s, ok := e.slots.Get(dest) // slotOf, spelled out: it does not inline
	if !ok || s > noSlot {
		s = noSlot
	}
	if ev := (event{at: at, seq: e.seq<<seqShift | uint64(s)<<evFlagBits | evNet, m: m}); !e.q.pushFirst(ev, lane) {
		e.q.push(ev, lane)
	}
}

// After implements Context.
func (e *VEngine) After(delay int64, m msg.Message) {
	e.timer(e.now+max(delay, 0), m)
}

// timer queues m for delivery at time at. Timers are never screened: only
// network transfers are lost, jittered or serialized.
func (e *VEngine) timer(at int64, m msg.Message) {
	e.seq++
	e.q.push(event{at: at, seq: e.seq<<seqShift | uint64(e.slotOf(m.Dest()))<<evFlagBits, m: m}, laneHeap)
}

// registered is a node and its ID.
type registered struct {
	Node
	id ids.NodeID
}

// slotOf returns the registration slot of node id, or noSlot when it has
// none below noSlot.
func (e *VEngine) slotOf(id ids.NodeID) int32 {
	if s, ok := e.slots.Get(id); ok && s < noSlot {
		return s
	}
	return noSlot
}

// node returns the slot of ev's destination, looked up by m.Dest() when
// the event carries none, and whether that node is registered.
func (e *VEngine) node(ev event) (int32, bool) {
	if s := ev.slot(); s != noSlot {
		return s, true
	}
	return e.slots.Get(ev.m.Dest())
}

// Freelist implements Context.
func (e *VEngine) Freelist() *msg.Freelist { return &e.fl }

// screen passes one Send through the drop filter and then the fault plan,
// returning its (possibly jittered) delivery time and whether it survives.
// Because Send calls it in Send order, the filter's view and the plan's
// draws are a pure function of the Send sequence.
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
// skipped.
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

// Run starts the Starter nodes in ascending NodeID order and then delivers
// events in (at, seq) order until the queue drains, advancing virtual time
// monotonically. A window-safe run with enough events in flight delivers
// them a lookahead window at a time on two goroutines (window.go), with
// the same result.
func (e *VEngine) Run() error {
	if e.faults != nil {
		// Crash/restart transitions enter the queue before any starter
		// event, so at equal timestamps a fault applies before the
		// messages scheduled later — a deterministic tie-break.
		for _, c := range e.faults.plan.Crashes {
			e.timer(c.At, &faultCtl{node: c.Node})
			if c.RestartAt > 0 {
				e.timer(c.RestartAt, &faultCtl{node: c.Node, restart: true, loseTables: c.LoseTables})
			}
		}
	}
	e.slots.Ascending(func(id ids.NodeID, s int32) {
		if st, ok := e.nodes[s].Node.(Starter); ok {
			e.current = id
			st.Start(e)
			e.current = ids.None
		}
	})
	// A window-safe run delivers its lookahead windows on two goroutines
	// while they hold at least fewest events on average.
	fewest := math.MaxInt
	if e.windowSafe() {
		fewest = minWindow
		if forced.Load() {
			fewest = 1
		}
	}
	var la windowState
	defer la.stop()
	for e.q.Len() > 0 {
		if e.q.Len() >= fewest && e.tryWindow(&la, fewest) {
			continue
		}
		ev, ok := e.q.popOnly()
		if !ok {
			ev = e.q.pop()
		}
		e.now = ev.at
		if (e.down != nil || e.busy != nil) && e.intercept(ev) {
			continue
		}
		s := ev.slot()
		if s == noSlot {
			var ok bool
			if s, ok = e.slots.Get(ev.m.Dest()); !ok {
				return fmt.Errorf("sim: message for unregistered node %v", ev.m.Dest())
			}
		}
		n := &e.nodes[s]
		e.delivered++
		e.current = n.id
		n.Handle(e, ev.m)
	}
	e.current = ids.None
	return nil
}

// intercept handles what a fault plan or queued service does to an event
// due now instead of delivering it, and reports whether it did: a crash or
// restart transition, a message for a crashed node, or a transfer that must
// first wait for its receiver's service slot.
func (e *VEngine) intercept(ev event) bool {
	if e.down != nil {
		if ctl, ok := ev.m.(*faultCtl); ok {
			e.applyFaultCtl(ctl)
			return true
		}
		if e.down[ev.m.Dest()] {
			// Fail-stop: a crashed node receives nothing. The message
			// dies at delivery (it left the sender long ago) and is
			// never recycled.
			e.faults.stats.CrashDrops++
			e.dropped++
			e.traceDrop(ids.None, ev.m, obs.DropCrash)
			return true
		}
	}
	if e.busy != nil && ev.seq&(evNet|evServed) == evNet {
		// Queued service: the message starts service when the receiver
		// frees up, completes Service later, and is handled at
		// completion. Re-queuing keeps the original sequence number, so
		// per-node FIFO order is preserved.
		start := ev.at
		if b := e.busy[ev.m.Dest()]; b > start {
			start = b
		}
		done := start + e.latency.Service
		e.busy[ev.m.Dest()] = done
		if done > ev.at {
			ev.at = done
			ev.seq |= evServed
			e.q.push(ev, laneHeap)
			return true
		}
	}
	return false
}

// applyFaultCtl executes one crash or restart transition.
func (e *VEngine) applyFaultCtl(ctl *faultCtl) {
	if !ctl.restart {
		if !e.down[ctl.node] {
			e.down[ctl.node] = true
			e.faults.stats.Crashes++
		}
		return
	}
	if !e.down[ctl.node] {
		return // restart without a preceding crash: ignore
	}
	delete(e.down, ctl.node)
	e.faults.stats.Restarts++
	if s, ok := e.slots.Get(ctl.node); ok {
		if r, isR := e.nodes[s].Node.(Restartable); isR {
			r.Restart(ctl.loseTables)
		}
	}
}
