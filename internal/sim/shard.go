package sim

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/obs"
)

// shard is one slice of a VEngine's node space with its own event queue and
// freelist. It is the context handlers run against — the full node-facing
// surface (Context, Clock, Scheduler).
type shard struct {
	eng *VEngine

	pq eventQueue
	fl msg.Freelist

	// current is the node whose Handle is executing, so Send can price the
	// link correctly (the sender is implicit in sim.Context).
	current ids.NodeID

	// busy is the per-node service-completion horizon of the QueueService
	// model (nil when the model is off, which keeps the delivery path on
	// one nil check for the latency-only configuration).
	busy map[ids.NodeID]int64

	// down is the fail-stop set of this shard's nodes (nil without a fault
	// plan); crash counts what it did.
	down  map[ids.NodeID]bool
	crash FaultStats

	delivered uint64
}

var (
	_ Context   = (*shard)(nil)
	_ Clock     = (*shard)(nil)
	_ Scheduler = (*shard)(nil)
)

// step pops and executes the shard's next event at virtual time ev.at.
func (s *shard) step() error {
	ev := s.pq.pop()
	s.eng.now = ev.at
	if s.down != nil {
		if ctl, ok := ev.m.(*faultCtl); ok {
			s.applyFaultCtl(ctl)
			return nil
		}
		if s.down[ev.m.Dest()] {
			// Fail-stop: a crashed node receives nothing. The message
			// dies at delivery (it left the sender long ago) and is
			// never recycled.
			s.crash.CrashDrops++
			s.eng.traceDrop(ids.None, ev.m, obs.DropCrash)
			return nil
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
			return nil
		}
	}
	dest := ev.m.Dest()
	n, ok := s.eng.nodes.Get(dest)
	if !ok {
		return fmt.Errorf("sim: message for unregistered node %v", dest)
	}
	s.delivered++
	s.current = dest // nodes are registered under their own ID
	n.Handle(s, ev.m)
	s.current = ids.None
	return nil
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
	e.admit(s.current, e.now+delay, m, lane, e.shardIdx(to))
}

// After implements Scheduler.
func (s *shard) After(delay int64, m msg.Message) {
	if delay < 0 {
		delay = 0
	}
	e := s.eng
	e.admit(s.current, e.now+delay, m, laneHeap, e.shardIdx(m.Dest()))
}

// Freelist implements Context: every shard recycles through its own.
func (s *shard) Freelist() *msg.Freelist { return &s.fl }
