package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/prefetch"
)

// Lookahead windows: how Run delivers one run on two goroutines and still
// produces, byte for byte, what delivering one event at a time does
// (DESIGN.md §7).
//
// No transfer arrives sooner than L = the latency model's cheapest link
// plus Service after it is sent (lookahead). So once the queue's head is
// due at t, every event due before t+L is already queued, except the
// timers those events' handlers arm for themselves: nothing a handler sends
// inside the window lands inside it. Events for different nodes in the
// window cannot affect each other, because a handler touches only its own
// node's state (Isolated). Run therefore pops the whole window and splits
// its nodes into parts; its own goroutine and one helper claim parts and
// deliver each part's events in window order, a node's own timers that
// fall inside the window at their place among them. Each part logs what
// its handlers send and arm. Then a
// single-threaded merge walks the parts' logs in the (at, seq) order the
// one-event-at-a-time loop would have delivered them and numbers their
// emissions as that loop would have, so every later event carries the
// sequence number it would have had, and the rest of the run cannot tell
// the difference.

// Isolated is implemented by a node whose Handle reads and writes only that
// node's own state, besides its Context and what never changes during a run.
// Run delivers lookahead windows on two goroutines only while every
// registered node is Isolated; a decorator that shares state between the
// nodes it wraps (a timing wrapper summing into one clock) is not, and its
// run delivers one event at a time.
type Isolated interface {
	Node
	// Isolated reports whether the node keeps to its own state (every
	// implementation here says true); Register reads it once.
	Isolated() bool
}

// minWindow is the fewest events a run's lookahead windows must hold on
// average (windowState.mean) to be delivered on two goroutines. Below it
// the hand-over, the merge and the state moving between the cores cost
// more than the second core gives back: on sim_shift_open's configuration
// with fewer clients, windows of about 60, 160 and 330 events ran at 0.70,
// 0.85 and 0.96 × the speed of one goroutine, and windows of about 490 and
// 670 at 1.11 and 1.12 × (DESIGN.md §7). Smaller windows, and every event
// of a run that is not window-safe, are delivered one at a time.
const minWindow = 400

// forced is ForceWindows' switch.
var forced atomic.Bool

// ForceWindows makes every window-safe run deliver every lookahead window on
// two goroutines, whatever the window's size and the number of processors,
// until the returned function undoes it. Tests use it to hold the windowed
// schedule to the one-event-at-a-time one on small runs.
func ForceWindows() (undo func()) {
	prev := forced.Swap(true)
	return func() { forced.Store(prev) }
}

// lookahead is the least virtual time between a Send and its delivery: the
// cheapest link plus Service.
func (l LatencyModel) lookahead() int64 {
	return min(l.ClientProxy, l.ProxyProxy, l.ProxyOrigin) + l.Service
}

// Windows reports whether Run may deliver lookahead windows on two
// goroutines: whether the run is window-safe and, so far, every node
// registered is Isolated. Call it once the engine is configured.
func (e *VEngine) Windows() bool { return e.windowSafe() && e.shared == 0 }

// windowSafe reports whether Run may open lookahead windows at all. A fault
// plan's and a drop filter's random stream and crash set, QueueService's
// busy horizons, the tracer's event stream and the time-series recorder are
// engine-wide state in delivery order, so runs with any of them deliver
// one event at a time, as do runs on one processor. Whether every node is
// Isolated is checked per window (a node may join mid-run).
func (e *VEngine) windowSafe() bool {
	return e.latency.lookahead() > 0 && !e.latency.QueueService &&
		e.faults == nil && e.drop == nil && e.tracer == nil && e.ts == nil &&
		(forced.Load() || runtime.GOMAXPROCS(0) >= 2)
}

// cacheLine is the padding that keeps what two goroutines write apart.
const cacheLine = 64

// Parts. A node with at least 1/heavyShare of a window's events is heavy:
// the first window it is heavy in gives it a home, part 0 or part 1,
// whichever has fewer of that window's heavy events, and it keeps that home
// for the run, so each goroutine keeps delivering the same heavy nodes and
// their state stays in its core's cache. The other nodes are dealt into up
// to maxShares shared parts of about 1/heavyShare of the window each. The
// caller claims part 0 first and the helper part 1; then both claim shared
// parts, and then the other's home if it is still unclaimed. The shared
// parts even out what the homes leave uneven, window by window.
const (
	heavyShare = 16
	maxShares  = 8
)

// parStorage is what a windowed run keeps from window to window and hands
// on through Release: the helper's freelist, the two goroutines' contexts,
// the parts' logs and the window's scratch.
type parStorage struct {
	fl      msg.Freelist
	_       [cacheLine]byte
	workers [2]worker
	parts   [2 + maxShares]part

	// win is the window's events in (at, seq) order and slot[k] the
	// registration slot of win[k]'s node; order holds the window's indexes
	// grouped by part. runs is popBefore's scratch.
	win   []event
	slot  []int32
	order []int32
	runs  [3][]event
	// Per slot: home is 1 + the node's home part, or 0 before it has one;
	// count is the node's events in this window and in the part it is in
	// for this window. seen lists the slots with events in this window.
	home  []uint8
	count []int32
	in    []uint8
	seen  []int32
	// timers are the in-window timers the merge has numbered and not yet
	// reached, in (at, seq) order from th on.
	timers []pendingTimer
	th     int
}

// pendingTimer is an in-window timer waiting for its place in the merge:
// due at, delivered as delivery del of part part.
type pendingTimer struct {
	at        int64
	part, del int32
}

// part is one set of a window's nodes, order[lo:hi] its events, and the
// record of delivering them: every delivery in order, each with the range
// of emissions its handler made, and the in-window timers not yet
// delivered. Whichever goroutine claims the part writes it.
type part struct {
	lo, hi int32
	emits  []emission
	log    []delivery
	timers []localTimer
	head   int // the first undelivered entry of timers

	_ [cacheLine]byte
}

// emission is one Send or After made inside a window, for the node in
// slot (noSlot as in event).
type emission struct {
	at   int64
	m    msg.Message
	slot int32
	lane int32
	// del is the index in the part's log of the emission's own delivery,
	// for a timer that fell inside the window (delivered there); -1 for the
	// rest.
	del int32
}

// delivery is one handler call, at time at, of a window event or of an
// in-window timer, whose emissions are emits[lo:hi].
type delivery struct {
	at     int64
	lo, hi int32
	timer  bool
}

// localTimer is an in-window timer of the part being delivered: due at,
// emission index emit, for the node in slot.
type localTimer struct {
	at   int64
	emit int32
	slot int32
}

// windows is a windowed run's two goroutines and the word they claim the
// window's parts with.
type windows struct {
	workers *[2]worker
	parts   *[2 + maxShares]part

	// n is the window's part count and claimed has bit i set once part i
	// is claimed; finished counts the parts delivered.
	n        atomic.Int32
	claimed  atomic.Uint32
	finished atomic.Int32
	// The helper spins for the next window for a while after each one,
	// then parks on wake with parked set; stopped ends it, and it closes
	// done on its way out.
	parked  atomic.Bool
	stopped atomic.Bool
	wake    chan struct{}
	done    chan struct{}
	// forced is ForceWindows' state when the run started.
	forced bool
}

// helperIdle is how long the helper spins waiting for the next window
// before it parks: longer than the caller's merge and next pop take, so
// that in a run of back-to-back windows the helper is running when each
// one opens.
const helperIdle = time.Millisecond

// worker is one goroutine's Context inside a window. It holds copies of
// what it reads of the engine, so that the caller's writes to the engine
// never share a cache line with the helper's reads.
type worker struct {
	id    int
	par   *parStorage
	nodes []registered
	// slots is a copy of the engine's, which no one changes inside a
	// window.
	slots   ids.Table[int32]
	latency LatencyModel
	fl      *msg.Freelist
	// pt is the part being delivered, slot and current the node being
	// delivered to, end the window's end.
	pt        *part
	slot      int32
	current   ids.NodeID
	end       int64
	now       int64
	delivered uint64

	_ [cacheLine]byte
}

// windowState is Run's state of a window-safe run: the windows once the
// first opens, and checkAt, before which the queue's head is inside a
// window that was not opened, whose events are delivered one at a time
// without counting again.
type windowState struct {
	w       *windows
	checkAt int64
	// mean is the run's events per window, an average over the windows
	// counted so far in which each new one weighs 1/8. Windows open while
	// it is large enough, so a run whose windows are about minWindow does
	// not switch between the two ways of delivery window by window: with
	// a threshold on each window alone, a run whose windows straddled it
	// ran at 0.85 × one goroutine's speed.
	mean int
}

// stop ends the run's helper goroutine, if it has one.
func (la *windowState) stop() {
	if la.w != nil {
		la.w.stop()
	}
}

// tryWindow counts the lookahead window at the queue's head into the run's
// mean and delivers it on two goroutines when the mean is at least fewest,
// starting the helper with the first window it delivers, and reports
// whether it did.
func (e *VEngine) tryWindow(la *windowState, fewest int) bool {
	at := e.q.peek().at
	if e.shared != 0 || at < la.checkAt {
		return false
	}
	end := at + e.latency.lookahead()
	if n := e.q.countBefore(end); la.mean == 0 {
		la.mean = n
	} else {
		la.mean += (n - la.mean) / 8
	}
	if la.mean >= fewest {
		if la.w == nil {
			la.w = e.startWindows()
		}
		if e.window(la.w, end) {
			return true
		}
	}
	la.checkAt = end
	return false
}

// startWindows readies a window-safe run's storage and starts its helper
// goroutine; stop ends it.
func (e *VEngine) startWindows() *windows {
	if e.par == nil {
		e.par = new(parStorage)
	}
	p := e.par
	clear(p.home)
	w := &windows{
		workers: &p.workers, parts: &p.parts,
		wake: make(chan struct{}, 1), done: make(chan struct{}),
		forced: forced.Load(),
	}
	for i := range w.workers {
		wk := &w.workers[i]
		wk.id, wk.par, wk.latency, wk.fl, wk.current = i, p, e.latency, &p.fl, ids.None
	}
	w.workers[0].fl = &e.fl
	w.claimed.Store(^uint32(0)) // no window yet
	go w.help(&w.workers[1])
	return w
}

// help is the helper goroutine: it claims parts of each window it finds
// open, spinning a while between windows and parking after that.
func (w *windows) help(h *worker) {
	defer close(w.done)
	var idle time.Time
	for turn := 0; !w.stopped.Load(); turn++ {
		if w.claim(h) {
			turn = -1
			continue
		}
		if turn == 0 {
			idle = time.Now()
		}
		if turn%64 != 63 || time.Since(idle) < helperIdle {
			// Yield at every turn: whatever else wants this processor —
			// the caller, a collector worker — gets it.
			runtime.Gosched()
			continue
		}
		w.parked.Store(true)
		if !w.open() && !w.stopped.Load() {
			<-w.wake
		}
		w.parked.Store(false)
		turn = -1
	}
}

// open reports whether the current window has an unclaimed part.
func (w *windows) open() bool {
	return ^w.claimed.Load()&(1<<w.n.Load()-1) != 0
}

// stop ends the helper goroutine, waits for it to leave the storage, which
// Release may hand to another engine, and drops the workers' hold on the
// run's nodes and on the engine (the caller's freelist is the engine's), so
// that the engine taking the storage does not keep them.
func (w *windows) stop() {
	w.stopped.Store(true)
	select {
	case w.wake <- struct{}{}:
	default:
	}
	<-w.done
	for i := range w.workers {
		wk := &w.workers[i]
		wk.nodes, wk.slots, wk.pt, wk.fl = nil, ids.Table[int32]{}, nil, nil
	}
}

// window delivers every queued event due before end, and the timers their
// handlers arm inside it, on two goroutines. It reports false, having
// changed nothing, when an event is addressed to a node nobody registered:
// Run then delivers the window one event at a time and fails at that event.
func (e *VEngine) window(w *windows, end int64) bool {
	p := e.par
	p.win = e.q.popBefore(end, p.win, &p.runs)
	p.slot = slices.Grow(p.slot[:0], len(p.win))[:len(p.win)]
	if n := len(e.nodes); len(p.count) < n {
		p.count = append(p.count, make([]int32, n-len(p.count))...)
		p.home = append(p.home, make([]uint8, n-len(p.home))...)
		p.in = append(p.in, make([]uint8, n-len(p.in))...)
	}
	for _, s := range p.seen {
		p.count[s] = 0
	}
	p.seen = p.seen[:0]
	for k := range p.win {
		s, ok := e.node(p.win[k])
		if !ok {
			for _, ev := range p.win {
				e.q.push(ev, laneHeap)
			}
			clear(p.win)
			p.win = p.win[:0]
			return false
		}
		p.slot[k] = s
		if p.count[s]++; p.count[s] == 1 {
			p.seen = append(p.seen, s)
		}
	}
	n := p.divide()
	e.inWindow = true
	w.deliver(e, end, n)
	e.inWindow = false
	e.merge(w, n)
	return true
}

// divide deals the window's nodes into parts (see heavyShare), sorts the
// window's indexes by part into order and returns the part count.
func (p *parStorage) divide() int {
	heavy := max(int32(len(p.win)/heavyShare), 1)
	var size [2 + maxShares]int32
	light := int32(0)
	for _, s := range p.seen {
		if h := p.home[s]; h != 0 {
			size[h-1] += p.count[s]
		} else if p.count[s] < heavy {
			light += p.count[s]
		}
	}
	shares := min(int((light+heavy-1)/heavy), maxShares)
	for _, s := range p.seen {
		if p.home[s] == 0 && p.count[s] >= heavy {
			p.home[s] = 1
			if size[1] < size[0] {
				p.home[s] = 2
			}
			size[p.home[s]-1] += p.count[s]
		}
		if h := p.home[s]; h != 0 {
			p.in[s] = h - 1
			continue
		}
		best := 2
		for i := 3; i < 2+shares; i++ {
			if size[i] < size[best] {
				best = i
			}
		}
		p.in[s] = uint8(best)
		size[best] += p.count[s]
	}
	n := 2 + shares
	lo := int32(0)
	for i := range p.parts[:n] {
		p.parts[i].lo, p.parts[i].hi = lo, lo
		lo += size[i]
	}
	p.order = slices.Grow(p.order[:0], len(p.win))[:len(p.win)]
	for k, s := range p.slot {
		pt := &p.parts[p.in[s]]
		p.order[pt.hi] = int32(k)
		pt.hi++
	}
	return n
}

// deliver publishes a window of n parts, wakes the helper if it is parked,
// claims parts on the calling goroutine until none is left and waits for
// the helper to finish the ones it claimed. A helper that has not started
// claims nothing and is not waited for.
func (w *windows) deliver(e *VEngine, end int64, n int) {
	for i := range w.workers {
		wk := &w.workers[i]
		wk.nodes, wk.slots, wk.end = e.nodes, e.slots, end
	}
	// Close every part first: a helper that read the last window's word
	// must not claim in this one before it is published.
	w.claimed.Store(^uint32(0))
	w.finished.Store(0)
	w.n.Store(int32(n))
	w.claimed.Store(0)
	if w.parked.Load() {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	if w.forced {
		// Give the helper a chance to claim even on one processor.
		runtime.Gosched()
	}
	for w.claim(&w.workers[0]) {
	}
	for w.finished.Load() != int32(n) {
		runtime.Gosched()
	}
}

// claim delivers on wk the first unclaimed part of the current window in
// wk's order — its home, the shared parts, the other home — and reports
// whether there was one.
func (w *windows) claim(wk *worker) bool {
	for {
		v, n := w.claimed.Load(), int(w.n.Load())
		i := wk.id
		if v&(1<<i) != 0 {
			for i = 2; i < n && v&(1<<i) != 0; i++ {
			}
			if i >= n {
				if i = 1 - wk.id; v&(1<<i) != 0 {
					return false
				}
			}
		}
		if w.claimed.CompareAndSwap(v, v|1<<i) {
			wk.run(&w.parts[i])
			w.finished.Add(1)
			return true
		}
	}
}

// run delivers a part: its nodes' window events in window order, and the
// timers their handlers arm inside the window at their (at, seq) place: a
// timer armed in the window is numbered after every event queued before
// it and after the part's earlier timers, so at equal times queued events
// go first and timers go in the order they were armed.
func (wk *worker) run(pt *part) {
	p := wk.par
	wk.pt = pt
	pt.emits, pt.log, pt.timers, pt.head = pt.emits[:0], pt.log[:0], pt.timers[:0], 0
	idx := p.order[pt.lo:pt.hi]
	for i := 0; ; {
		d := delivery{lo: int32(len(pt.emits))}
		var m msg.Message
		if pt.head < len(pt.timers) && (i == len(idx) || pt.timers[pt.head].at < p.win[idx[i]].at) {
			t := pt.timers[pt.head]
			pt.head++
			em := &pt.emits[t.emit]
			em.del = int32(len(pt.log))
			d.at, d.timer, m = t.at, true, em.m
			wk.slot = t.slot
		} else if i < len(idx) {
			k := idx[i]
			ev := &p.win[k]
			d.at, m = ev.at, ev.m
			wk.slot = p.slot[k]
			if i++; i < len(idx) {
				prefetchMessage(p.win[idx[i]].m)
			}
		} else {
			break
		}
		n := &wk.nodes[wk.slot]
		wk.now, wk.current = d.at, n.id
		wk.delivered++
		n.Handle(wk, m)
		d.hi = int32(len(pt.emits))
		pt.log = append(pt.log, d)
	}
	wk.current = ids.None
}

// Send implements Context: the transfer is logged for the merge. It lands
// at or after the window's end, so no one in the window sees it.
func (wk *worker) Send(m msg.Message) {
	CountHop(m)
	dest := m.Dest()
	delay, lane := wk.latency.cost(wk.current, dest)
	wk.pt.emits = append(wk.pt.emits, emission{at: wk.now + delay, m: m, slot: wk.slotOf(dest), lane: int32(lane), del: -1})
}

// slotOf is VEngine.slotOf on the worker's copy of the slots.
func (wk *worker) slotOf(id ids.NodeID) int32 {
	if s, ok := wk.slots.Get(id); ok && s < noSlot {
		return s
	}
	return noSlot
}

// After implements Context: the timer is logged for the merge and, when
// it falls inside the window, delivered there as one of the node's own
// events. A timer must target the node that arms it.
func (wk *worker) After(delay int64, m msg.Message) {
	at := wk.now + max(delay, 0)
	dest := m.Dest()
	pt := wk.pt
	if at < wk.end {
		if dest != wk.current {
			panic(fmt.Sprintf("sim: node %v armed a timer for %v inside a lookahead window", wk.current, dest))
		}
		// Insert after every pending timer due no later: equal times go
		// in the order they were armed.
		j := len(pt.timers)
		for j > pt.head && pt.timers[j-1].at > at {
			j--
		}
		pt.timers = slices.Insert(pt.timers, j, localTimer{at: at, emit: int32(len(pt.emits)), slot: wk.slot})
	}
	pt.emits = append(pt.emits, emission{at: at, m: m, slot: wk.slotOf(dest), lane: laneHeap, del: -1})
}

// Freelist implements Context.
func (wk *worker) Freelist() *msg.Freelist { return wk.fl }

// VNow implements Context.
func (wk *worker) VNow() int64 { return wk.now }

var _ Context = (*worker)(nil)

// merge walks the window's deliveries in the order the one-event-at-a-time
// loop would have made them — the window's events in queue order, each
// found at its part's log cursor, and the in-window timers, each at its
// (at, seq) place among them — and numbers each delivery's emissions as
// that loop's Send and After would have: the next sequence number each, in
// emission order. Transfers and timers beyond the window are queued; a
// timer inside it was delivered already, and joins the walk at its place.
// Then the goroutines' counts and freelists are folded and balanced.
func (e *VEngine) merge(w *windows, n int) {
	p := e.par
	timersBefore := func(at int64) {
		for p.th < len(p.timers) && p.timers[p.th].at < at {
			t := p.timers[p.th]
			p.th++
			e.number(w, int(t.part), t.del)
		}
	}
	var next [2 + maxShares]int32
	for k := range p.win {
		timersBefore(p.win[k].at)
		i := int(p.in[p.slot[k]])
		log := w.parts[i].log
		c := next[i]
		for log[c].timer {
			c++
		}
		next[i] = c + 1
		e.number(w, i, c)
	}
	timersBefore(math.MaxInt64)
	p.timers, p.th = p.timers[:0], 0
	clear(p.win)
	p.win = p.win[:0]
	for i := range w.workers {
		wk := &w.workers[i]
		e.delivered += wk.delivered
		wk.delivered = 0
	}
	for i := range w.parts[:n] {
		clear(w.parts[i].emits)
	}
	e.fl.Balance(&p.fl)
}

// Every part has a bit in the claimed word.
var _ [32 - (2 + maxShares)]struct{}

// number numbers the emissions of delivery d of part i.
func (e *VEngine) number(w *windows, i int, d int32) {
	pt := &w.parts[i]
	del := &pt.log[d]
	e.now = del.at
	for j := del.lo; j < del.hi; j++ {
		em := &pt.emits[j]
		e.seq++
		seq := e.seq<<seqShift | uint64(em.slot)<<evFlagBits
		switch {
		case em.del >= 0:
			e.par.pend(pendingTimer{at: em.at, part: int32(i), del: em.del})
		case em.lane == laneHeap:
			e.q.push(event{at: em.at, seq: seq, m: em.m}, laneHeap)
		default:
			if ev := (event{at: em.at, seq: seq | evNet, m: em.m}); !e.q.pushFirst(ev, int(em.lane)) {
				e.q.push(ev, int(em.lane))
			}
		}
	}
}

// pend adds a numbered in-window timer to those the merge has yet to reach,
// after every one due no later: timers are numbered in increasing order.
func (p *parStorage) pend(t pendingTimer) {
	j := len(p.timers)
	for j > p.th && p.timers[j-1].at > t.at {
		j--
	}
	p.timers = slices.Insert(p.timers, j, t)
}

// prefetchMessage starts loading the struct behind m, the next message a
// part delivers: it was most likely last written on the other core. An
// interface value is a type word and a data word; the data word of every
// message is a pointer.
func prefetchMessage(m msg.Message) {
	prefetch.Line((*[2]unsafe.Pointer)(unsafe.Pointer(&m))[1])
}
