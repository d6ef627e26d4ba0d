package sim

import "github.com/adc-sim/adc/internal/msg"

// event is one scheduled delivery of the virtual-time engine.
type event struct {
	at  int64
	seq uint64
	m   msg.Message
	// net marks a network transfer (Send), the only events the
	// QueueService model serializes; served marks a transfer that has
	// already been assigned its service-completion slot.
	net    bool
	served bool
}

// before is the total order events are delivered in: timestamp, then
// enqueue sequence. (at, seq) pairs are unique, so the heap's internal
// shape never influences the delivery sequence — a 4-ary heap delivers
// byte-identical results to the binary container/heap it replaced.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a flat 4-ary min-heap over (at, seq). Children of slot i
// sit at 4i+1..4i+4, its parent at (i-1)/4. Push and pop operate directly
// on the typed slice — no any-boxing, no interface dispatch.
type eventQueue struct {
	ev []event
}

// Len returns the number of queued events (test support).
func (q *eventQueue) Len() int { return len(q.ev) }

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	// Sift up.
	ev := q.ev
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev[i].before(ev[p]) {
			break
		}
		ev[i], ev[p] = ev[p], ev[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	ev := q.ev
	root := ev[0]
	n := len(ev) - 1
	ev[0] = ev[n]
	ev[n] = event{} // release the message reference
	q.ev = ev[:n]
	// Sift down.
	ev = q.ev
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if ev[j].before(ev[best]) {
				best = j
			}
		}
		if !ev[best].before(ev[i]) {
			break
		}
		ev[i], ev[best] = ev[best], ev[i]
		i = best
	}
	return root
}
