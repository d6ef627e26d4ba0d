package sim

import (
	"slices"

	"github.com/adc-sim/adc/internal/msg"
)

// event is one scheduled delivery of the virtual-time engine, 32 bytes:
// small enough for the compiler to keep one in registers.
type event struct {
	at int64
	// seq packs, from the high bits down, the enqueue sequence number, the
	// registration slot of the destination node (see slot), and the
	// event's flags: evNet marks a network transfer (Send), the only events
	// the QueueService model serializes; evServed marks a transfer that has
	// already been assigned its service-completion slot. Sequence numbers
	// are unique, so neither the slot nor the flags ever decide an order.
	seq uint64
	m   msg.Message
}

// Event flags, in the low bits of event.seq.
const (
	evNet uint64 = 1 << iota
	evServed
	evFlagBits = iota
)

// The destination's slot sits above the flags in event.seq, so that
// dispatching an event, or splitting a lookahead window by node, reads no
// message. noSlot marks a destination that had no slot below it when the
// event was queued; its node is looked up by m.Dest() at delivery. The
// sequence number keeps the top 64 − seqShift = 40 bits: 10¹² events.
const (
	slotBits = 22
	noSlot   = 1<<slotBits - 1
	seqShift = evFlagBits + slotBits
)

// slot returns the registration slot of the event's destination, or noSlot.
func (ev event) slot() int32 { return int32(ev.seq >> evFlagBits & noSlot) }

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
// jittered, or re-queued for queued service — lands in the heap instead
// and every source stays sorted: the pop sequence is the (at, seq) order
// whatever was pushed where.
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

// pushFirst is push into an empty queue, small enough to inline: a closed
// loop holds one event at a time, so most of its pushes land here. It
// reports false, leaving the queue untouched, when the queue is not empty
// or the lane has no storage yet; the caller then pushes. (An empty queue
// has every source rewound to the start of its slice.)
func (q *eventQueue) pushFirst(e event, to int) bool {
	l := &q.src[to]
	if q.n != 0 || cap(l.ev) == 0 {
		return false
	}
	q.n, q.min = 1, to
	l.ev = l.ev[:1]
	l.ev[0] = e
	return true
}

// popOnly is pop from a queue of one event, small enough to inline; ok is
// false, and the queue untouched, unless the queue holds exactly one.
func (q *eventQueue) popOnly() (ev event, ok bool) {
	if q.n != 1 {
		return ev, false
	}
	l := &q.src[q.min]
	ev = l.ev[l.head]
	l.ev[l.head].m = nil // release the message reference
	l.ev, l.head = l.ev[:0], 0
	q.n = 0
	return ev, true
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

// countBefore returns how many queued events are due before end: each FIFO
// lane is scanned from its head, and the heap is walked only below events
// due before end (an event's children are never due sooner).
func (q *eventQueue) countBefore(end int64) int {
	n := 0
	for i := range q.src[:laneHeap] {
		l := &q.src[i]
		for j := l.head; j < len(l.ev) && l.ev[j].at < end; j++ {
			n++
		}
	}
	return n + q.src[laneHeap].countHeap(0, end)
}

// popBefore removes every queued event due before end and appends them to
// dst in (at, seq) order: each FIFO lane gives up a prefix and the heap its
// smallest events, and the four sorted runs are merged two by two, through
// the scratch arrays.
func (q *eventQueue) popBefore(end int64, dst []event, scratch *[3][]event) []event {
	var runs [numLanes][]event
	n := 0
	for i := range q.src[:laneHeap] {
		l := &q.src[i]
		cut := l.head
		for cut < len(l.ev) && l.ev[cut].at < end {
			cut++
		}
		runs[i] = l.ev[l.head:cut]
		n += cut - l.head
	}
	h, heap, a, b := &q.src[laneHeap], &scratch[0], &scratch[1], &scratch[2]
	for len(h.ev) > 0 && h.ev[0].at < end {
		*heap = append(*heap, h.popRoot())
	}
	n += len(*heap)
	*a = mergeRuns(*a, runs[laneClient], runs[laneProxy])
	*b = mergeRuns(*b, runs[laneOrigin], *heap)
	dst = mergeRuns(dst, *a, *b)
	for i := range q.src[:laneHeap] {
		l := &q.src[i]
		clear(runs[i]) // release the message references
		if l.head += len(runs[i]); l.head == len(l.ev) {
			l.ev, l.head = l.ev[:0], 0
		}
	}
	for i := range scratch {
		clear(scratch[i])
		scratch[i] = scratch[i][:0]
	}
	q.n -= n
	if q.n > 0 {
		var best *event
		for i := range q.src {
			if s := &q.src[i]; s.head < len(s.ev) {
				if h := &s.ev[s.head]; best == nil || h.before(best) {
					best, q.min = h, i
				}
			}
		}
	}
	return dst
}

// mergeRuns appends the (at, seq) merge of the sorted runs x and y to dst.
func mergeRuns(dst, x, y []event) []event {
	n := len(dst)
	dst = slices.Grow(dst, len(x)+len(y))[:n+len(x)+len(y)]
	out := dst[n:]
	i, j, k := 0, 0, 0
	for ; i < len(x) && j < len(y); k++ {
		if x[i].before(&y[j]) {
			out[k] = x[i]
			i++
		} else {
			out[k] = y[j]
			j++
		}
	}
	copy(out[k+copy(out[k:], x[i:]):], y[j:])
	return dst
}

// countHeap counts the events due before end in the subtree of heap slot i.
func (l *lane) countHeap(i int, end int64) int {
	if i >= len(l.ev) || l.ev[i].at >= end {
		return 0
	}
	n := 1
	for c := i<<2 + 1; c <= i<<2+4; c++ {
		n += l.countHeap(c, end)
	}
	return n
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
