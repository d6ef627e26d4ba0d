package sim

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/obs"
)

// shard is one slice of a VEngine's node space with its own event queue and
// freelist. It is the context handlers run against — the full node-facing
// surface (Context, Clock, Scheduler, Recycler).
type shard struct {
	eng *VEngine
	idx int

	pq eventQueue
	fl msg.Freelist

	// current is the node whose Handle is executing, so Send can price the
	// link correctly (the sender is implicit in sim.Context); curSeq is
	// the sequence number of the event being handled.
	current ids.NodeID
	curSeq  uint64

	// emits buffers a fanned-out cohort's emissions in (pseq, emission
	// index) order; mergeHead is the coordinator's cursor into it during
	// the serial merge.
	emits     []pemit
	mergeHead int

	// busy is the per-node service-completion horizon of the QueueService
	// model (nil when the model is off, which keeps the delivery path on
	// one nil check for the latency-only configuration).
	busy map[ids.NodeID]int64

	// down is the fail-stop set of this shard's nodes (nil without a fault
	// plan); crash counts what it did.
	down  map[ids.NodeID]bool
	crash FaultStats

	delivered uint64
	err       error

	cmd  chan pcmd
	done chan struct{}
}

var (
	_ Context   = (*shard)(nil)
	_ Clock     = (*shard)(nil)
	_ Scheduler = (*shard)(nil)
	_ Recycler  = (*shard)(nil)
)

// pcmd is one coordinator→worker phase command.
type pcmd struct {
	phase pphase
	t     int64  // phaseExec: the cohort timestamp
	base  uint64 // phaseExec: the cohort's sequence limit; phaseRank: first sequence number of its emissions
}

type pphase int8

const (
	phaseExec pphase = iota
	phaseRank
	phasePush
)

// pemit is one buffered emission awaiting the cohort merge.
type pemit struct {
	pseq uint64     // sequence number of the emitting (parent) event
	seq  uint64     // assigned global sequence number (rank phase)
	at   int64      // absolute delivery time, before jitter
	from ids.NodeID // the emitting node
	dest int32      // destination shard
	lane int8       // the Send's link lane; laneHeap for a timer
	m    msg.Message
}

// loop is the worker goroutine: it executes phase commands until the
// coordinator closes the channel. All shard state is handed back and forth
// through the cmd/done rendezvous, which provides the happens-before edges
// that keep the engine race-clean.
func (s *shard) loop() {
	for cmd := range s.cmd {
		switch cmd.phase {
		case phaseExec:
			s.exec(cmd.t, cmd.base)
		case phaseRank:
			s.rank(cmd.base)
		case phasePush:
			s.pushMerged()
		}
		s.done <- struct{}{}
	}
}

// exec delivers the shard's part of the cohort — its events at t with
// sequence numbers up to limit — in ascending sequence order, stopping
// early if a step fails (s.err).
func (s *shard) exec(t int64, limit uint64) {
	for s.pq.Len() > 0 {
		if h := s.pq.peek(); h.at != t || h.seq > limit || !s.step() {
			return
		}
	}
}

// step pops and executes the shard's next event; false means the run must
// stop (s.err).
func (s *shard) step() bool {
	ev := s.pq.pop()
	if s.down != nil {
		if ctl, ok := ev.m.(*faultCtl); ok {
			s.applyFaultCtl(ctl)
			return true
		}
		if s.down[ev.m.Dest()] {
			// Fail-stop: a crashed node receives nothing. The message
			// dies at delivery (it left the sender long ago) and is
			// never recycled.
			s.crash.CrashDrops++
			s.eng.traceDrop(ids.None, ev.m, obs.DropCrash)
			return true
		}
	}
	if s.busy != nil && ev.net && !ev.served {
		// Queued service: the message starts service when the receiver
		// frees up, completes Service later, and is handled at
		// completion. Re-queuing keeps the original sequence number, so
		// per-node FIFO order is preserved.
		start := ev.at
		if b := s.busy[ev.m.Dest()]; b > start {
			start = b
		}
		done := start + s.eng.latency.Service
		s.busy[ev.m.Dest()] = done
		if done > ev.at {
			ev.at = done
			ev.served = true
			s.pq.push(ev, laneHeap)
			return true
		}
	}
	dest := ev.m.Dest()
	n, ok := s.eng.nodes.Get(dest)
	if !ok {
		s.err = fmt.Errorf("sim: message for unregistered node %v", dest)
		return false
	}
	s.delivered++
	s.curSeq = ev.seq
	s.current = dest // nodes are registered under their own ID
	n.Handle(s, ev.m)
	s.current = ids.None
	return true
}

// applyFaultCtl executes one crash or restart transition.
func (s *shard) applyFaultCtl(ctl *faultCtl) {
	if !ctl.restart {
		if !s.down[ctl.node] {
			s.down[ctl.node] = true
			s.crash.Crashes++
		}
		return
	}
	if !s.down[ctl.node] {
		return // restart without a preceding crash: ignore
	}
	delete(s.down, ctl.node)
	s.crash.Restarts++
	if n, ok := s.eng.nodes.Get(ctl.node); ok {
		if r, isR := n.(Restartable); isR {
			r.Restart(ctl.loseTables)
		}
	}
}

// rank assigns each of this shard's buffered emissions its global sequence
// number: base plus its rank in the cross-shard (pseq, emission index)
// merge order. The rank is the emission's own index plus, per foreign
// shard, the count of foreign emissions with smaller pseq — a two-pointer
// sweep over each sorted buffer. The values are identical to what
// mergeSerial would assign.
func (s *shard) rank(base uint64) {
	mine := s.emits
	for i := range mine {
		mine[i].seq = base + uint64(i)
	}
	for _, o := range s.eng.shards {
		if o == s || len(o.emits) == 0 {
			continue
		}
		other := o.emits
		j := 0
		for i := range mine {
			for j < len(other) && other[j].pseq < mine[i].pseq {
				j++
			}
			mine[i].seq += uint64(j)
		}
	}
}

// pushMerged pushes every cohort emission destined to this shard into its
// queue. Insertion order does not matter for determinism: (at, seq) pairs
// are unique and a lane refuses what would break its order, so the pop
// sequence is independent of what landed where.
func (s *shard) pushMerged() {
	for _, o := range s.eng.shards {
		for i := range o.emits {
			if em := &o.emits[i]; em.dest == int32(s.idx) {
				s.pq.push(event{at: em.at, seq: em.seq, m: em.m, net: em.lane != laneHeap}, int(em.lane))
			}
		}
	}
}

// VNow implements Clock.
func (s *shard) VNow() int64 { return s.eng.now }

// Send implements Context: the message arrives after the modelled link
// latency; the hop is counted exactly as in the other engines.
func (s *shard) Send(m msg.Message) {
	CountHop(m)
	e, to := s.eng, m.Dest()
	delay, lane := e.latency.cost(s.current, to)
	if s.busy != nil {
		// Queued service: the transfer pays only the link here; the
		// Service component is charged at delivery, serialized per
		// receiver.
		delay -= e.latency.Service
	}
	s.emit(e.now+delay, m, to, lane)
}

// After implements Scheduler.
func (s *shard) After(delay int64, m msg.Message) {
	if delay < 0 {
		delay = 0
	}
	s.emit(s.eng.now+delay, m, m.Dest(), laneHeap)
}

// emit admits an emission at once while the engine is direct and buffers
// it for the cohort merge otherwise.
func (s *shard) emit(at int64, m msg.Message, to ids.NodeID, lane int) {
	e := s.eng
	dest := e.shardIdx(to)
	if e.direct {
		e.admit(s.current, at, m, lane, dest)
		return
	}
	s.emits = append(s.emits, pemit{
		pseq: s.curSeq,
		at:   at,
		from: s.current,
		dest: int32(dest),
		lane: int8(lane),
		m:    m,
	})
}

// Recycler: every shard recycles through its own freelist.
func (s *shard) AcquireRequest() *msg.Request  { return s.fl.GetRequest() }
func (s *shard) AcquireReply() *msg.Reply      { return s.fl.GetReply() }
func (s *shard) ReleaseRequest(r *msg.Request) { s.fl.PutRequest(r) }
func (s *shard) ReleaseReply(r *msg.Reply)     { s.fl.PutReply(r) }
