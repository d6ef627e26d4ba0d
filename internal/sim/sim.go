// Package sim provides the deterministic message-passing substrate the
// proxy system runs on: a Node interface implemented by proxies, clients
// and the origin server, and two engines to run them on. Engine delivers
// messages in FIFO order and has no clock. VEngine is the one virtual-time
// engine: (timestamp, sequence) delivery order under a latency model, with
// open-loop timers, fault plans, queued service, tracing and time series,
// on one shard or spread over many with byte-identical results (DESIGN.md
// §7). At zero latency VEngine reproduces Engine's delivery order exactly,
// which makes each an oracle for the other.
//
// The paper ran its agents on the Carolina multi-agent platform across
// eight hosts, and reports that "a simulation running on a powerful ...
// machine returns the same results as a run spread over a distributed set
// of machines" (§V.1.2). This package is the single-machine side of that
// equivalence; internal/agent is the concurrent runtime, held to identical
// metrics under closed-loop injection, and internal/httpproxy runs the same
// protocol core over real sockets, held to identical per-proxy statistics
// and table dumps (TestSimAndFarmRunTheSameProtocol).
package sim

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
)

// Context lets a node emit messages during Handle. Each Send is one "hop"
// in the paper's sense — "the message transfer between client-proxy,
// proxy-proxy and proxy-server" (§V.2.2) — and increments the message's
// hop counter.
type Context interface {
	// Send enqueues m for delivery to m.Dest().
	Send(m msg.Message)
}

// Node is a participant in the simulated system.
type Node interface {
	// ID returns the node's stable address.
	ID() ids.NodeID
	// Handle processes one delivered message, possibly sending others.
	// Engines guarantee Handle is never invoked concurrently for the
	// same node.
	Handle(ctx Context, m msg.Message)
}

// Starter is implemented by nodes that inject initial traffic (clients).
// Engines call Start exactly once before delivering any messages.
type Starter interface {
	Start(ctx Context)
}

// CountHop increments the hop counter embedded in m. Every runtime calls
// it on every send so hop accounting is identical across them.
func CountHop(m msg.Message) {
	switch t := m.(type) {
	case *msg.Request:
		t.Hops++
	case *msg.Reply:
		t.Hops++
	}
}

// Engine is the deterministic sequential runtime: a FIFO queue of messages
// drained one at a time. Determinism is total — same nodes, same seeds,
// same injected traffic means the same delivery sequence. Dispatch is a
// dense array lookup (ids.Table) and messages recycle through an
// engine-owned freelist, so the steady-state loop does not allocate.
type Engine struct {
	nodes ids.Table[Node]
	queue messageQueue
	fl    msg.Freelist
	// delivered counts total message deliveries, for diagnostics.
	delivered uint64
}

var (
	_ Context  = (*Engine)(nil)
	_ Recycler = (*Engine)(nil)
)

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{}
}

// Register adds a node. Registering two nodes with the same ID is a
// configuration error.
func (e *Engine) Register(n Node) error {
	if !e.nodes.Put(n.ID(), n) {
		return fmt.Errorf("sim: duplicate node %v", n.ID())
	}
	return nil
}

// Send implements Context: it counts the hop and enqueues the message.
func (e *Engine) Send(m msg.Message) {
	CountHop(m)
	e.queue.push(m)
}

// AcquireRequest implements Recycler.
func (e *Engine) AcquireRequest() *msg.Request { return e.fl.GetRequest() }

// AcquireReply implements Recycler.
func (e *Engine) AcquireReply() *msg.Reply { return e.fl.GetReply() }

// ReleaseRequest implements Recycler.
func (e *Engine) ReleaseRequest(r *msg.Request) { e.fl.PutRequest(r) }

// ReleaseReply implements Recycler.
func (e *Engine) ReleaseReply(r *msg.Reply) { e.fl.PutReply(r) }

// Delivered returns the total number of messages delivered so far.
func (e *Engine) Delivered() uint64 { return e.delivered }

// Run starts every Starter node in ascending NodeID order and drains the
// queue. It returns an error if a message addresses an unregistered node,
// which indicates a wiring bug rather than a runtime condition.
func (e *Engine) Run() error {
	e.nodes.Ascending(func(_ ids.NodeID, n Node) {
		if s, ok := n.(Starter); ok {
			s.Start(e)
		}
	})
	for {
		m, ok := e.queue.pop()
		if !ok {
			return nil
		}
		n, ok := e.nodes.Get(m.Dest())
		if !ok {
			return fmt.Errorf("sim: message for unregistered node %v", m.Dest())
		}
		e.delivered++
		n.Handle(e, m)
	}
}

// messageQueue is an amortised-O(1) FIFO backed by a slice with a moving
// head, compacted when the dead prefix dominates.
type messageQueue struct {
	buf  []msg.Message
	head int
}

func (q *messageQueue) push(m msg.Message) {
	q.buf = append(q.buf, m)
}

func (q *messageQueue) pop() (msg.Message, bool) {
	if q.head >= len(q.buf) {
		return nil, false
	}
	m := q.buf[q.head]
	q.buf[q.head] = nil // allow GC of delivered messages
	q.head++
	if q.head > 1024 && q.head*2 > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return m, true
}

// Len returns the number of queued messages (test support).
func (q *messageQueue) Len() int { return len(q.buf) - q.head }
