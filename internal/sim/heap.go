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
// enqueue sequence. (at, seq) pairs are unique, so the queue's internal
// shape never influences the delivery sequence — lanes plus a 4-ary heap
// deliver byte-identical results to the binary container/heap they
// replaced.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The sources of an eventQueue: one FIFO lane per link-latency class of the
// LatencyModel, and the heap for everything else.
const (
	laneClient = iota // client↔proxy transfers
	laneProxy         // proxy↔proxy transfers
	laneOrigin        // proxy↔origin transfers
	laneHeap          // timers, fault transitions, re-queued service, whatever a lane refuses
	numLanes
)

// lane is one source of an eventQueue: ev[head:] are its queued events.
// A FIFO lane keeps them in ascending (at, seq) order and advances head on
// pop; the heap keeps them in heap order with head always 0.
type lane struct {
	ev   []event
	head int
}

// eventQueue is a min-queue over (at, seq). A transfer is priced with one
// of three constants, and within one link class transfers are emitted at
// now + constant with now monotone and seq increasing — already in
// delivery order. So each class has a FIFO lane (push appends, pop
// advances a cursor) and only what has no such order goes through the flat
// 4-ary min-heap (children of slot i at 4i+1..4i+4, parent at (i-1)/4). The
// minimum of the queue is the smallest of the four heads. A lane accepts
// an event only behind its tail, so an event that arrives out of order —
// jittered, or merged from another shard in a different interleaving —
// lands in the heap instead and every source stays sorted: the pop
// sequence is the (at, seq) order whatever was pushed where.
type eventQueue struct {
	src [numLanes]lane
	n   int
	// min is the source holding the smallest head, kept valid across pushes
	// and pops while n > 0 so peek never scans.
	min int
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return q.n }

// peek returns the next event to be popped; the queue must not be empty.
// The pointer is valid until the next push or pop.
func (q *eventQueue) peek() *event {
	l := &q.src[q.min]
	return &l.ev[l.head]
}

// push queues e on the given lane, or on the heap if the lane's tail is not
// before it.
func (q *eventQueue) push(e event, to int) {
	if to != laneHeap {
		l := &q.src[to]
		n := len(l.ev)
		if n == l.head || l.ev[n-1].before(&e) {
			// Behind a tail e cannot be the minimum; as a lane's new head
			// it can.
			if n == l.head && (q.n == 0 || e.before(q.peek())) {
				q.min = to
			}
			q.n++
			if n == cap(l.ev) && l.head > n/2 {
				// Reclaim the popped prefix instead of growing: amortized
				// over the head/2 pops that made it.
				live := copy(l.ev, l.ev[l.head:])
				clear(l.ev[live:]) // release the moved events' message references
				l.ev, l.head = l.ev[:live], 0
			}
			l.ev = append(l.ev, e)
			return
		}
	}
	if q.n == 0 || e.before(q.peek()) {
		q.min = laneHeap
	}
	q.n++
	l := &q.src[laneHeap]
	l.ev = append(l.ev, e)
	// Sift up.
	ev := l.ev
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev[i].before(&ev[p]) {
			break
		}
		ev[i], ev[p] = ev[p], ev[i]
		i = p
	}
}

// pop removes and returns the smallest event; the queue must not be empty.
func (q *eventQueue) pop() (root event) {
	l := &q.src[q.min]
	if q.min != laneHeap {
		h := &l.ev[l.head]
		root = *h
		h.m = nil // release the message reference
		if l.head++; l.head == len(l.ev) {
			l.ev, l.head = l.ev[:0], 0
		}
	} else {
		root = l.popRoot()
	}
	if q.n--; q.n > 0 {
		var best *event
		for i := range q.src {
			if s := &q.src[i]; s.head < len(s.ev) {
				if h := &s.ev[s.head]; best == nil || h.before(best) {
					best, q.min = h, i
				}
			}
		}
	}
	return
}

// popRoot removes and returns the root of the heap lane, sifting the last
// event down from the top.
func (l *lane) popRoot() event {
	ev := l.ev
	root := ev[0]
	n := len(ev) - 1
	ev[0] = ev[n]
	ev[n] = event{} // release the message reference
	l.ev = ev[:n]
	ev = l.ev
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
			if ev[j].before(&ev[best]) {
				best = j
			}
		}
		if !ev[best].before(&ev[i]) {
			break
		}
		ev[i], ev[best] = ev[best], ev[i]
		i = best
	}
	return root
}
