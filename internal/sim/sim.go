// Package sim provides the deterministic message-passing substrate the
// proxy system runs on: a Node interface implemented by proxies, clients
// and the origin server, and VEngine, the one engine that runs them.
// VEngine is a discrete-event engine on one event queue: it delivers
// events in (timestamp, sequence) order under a latency model, with
// open-loop timers, fault plans, queued service, tracing and time series
// (DESIGN.md §7). Under the zero LatencyModel a run that arms no timer has
// every event at timestamp 0, so delivery degenerates to enqueue order —
// the FIFO schedule of the sequential runtime.
//
// Events are delivered one at a time, except in a window-safe run on two
// or more processors with many events in flight: there, every event due
// within the latency model's cheapest transfer of the queue's head — a
// lookahead window, inside which no node can reach another — is delivered
// on two goroutines, the nodes split between them, and the sends and
// timers the window's handlers make are then numbered exactly as one
// event at a time would have numbered them (window.go). The result is
// byte-identical either way.
//
// The paper ran its agents on the Carolina multi-agent platform across
// eight hosts, and reports that "a simulation running on a powerful ...
// machine returns the same results as a run spread over a distributed set
// of machines" (§V.1.2). This package is the single-machine side of that
// equivalence; internal/httpproxy runs the same protocol core over real
// sockets, held to identical per-proxy statistics and table dumps
// (TestSimAndFarmRunTheSameProtocol).
package sim

import (
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
)

// Context is what a node sees of the engine during Handle: it sends
// messages, reads the virtual clock and arms timers. Each Send is one
// "hop" in the paper's sense — "the message transfer between client-proxy,
// proxy-proxy and proxy-server" (§V.2.2) — and increments the message's
// hop counter.
//
// Each goroutine of the engine has its own context with its own message
// freelist, so the steady-state loop neither locks nor allocates. Ownership follows
// internal/msg: a handler owns the message it received, and putting it
// back on the freelist ends that ownership. The engine does NOT recycle
// messages dropped by the fault filter at Send time: the sender may still
// hold the pointer it just passed in (Send returning normally gives it no
// signal that the message died), so a dropped message is left to the
// garbage collector instead.
type Context interface {
	// Send enqueues m for delivery to m.Dest().
	Send(m msg.Message)
	// Freelist is the context's message freelist: traffic sources take
	// new requests from it and terminal receivers put replies back.
	Freelist() *msg.Freelist
	// VNow returns the current virtual time in ticks (always 0 under the
	// zero LatencyModel).
	VNow() int64
	// After delivers m to m.Dest() at VNow()+delay: the timer of
	// open-loop sources, retransmission and pending-state expiry. A
	// handler arms timers for its own node only.
	After(delay int64, m msg.Message)
}

// Resolve consumes req and returns the reply answering it, initialized to
// retrace the recorded forwarding path (the backwarding start of §III.2).
// Ownership of req transfers here: its Path moves to the reply and the
// struct returns to the freelist, so the caller must not touch req
// afterwards. The caller sets Resolver/Cached/FromOrigin on the reply
// before sending.
func Resolve(ctx Context, req *msg.Request) *msg.Reply {
	fl := ctx.Freelist()
	rep := fl.GetReply()
	rep.InitFrom(req)
	req.Path = nil // backing array now owned by the reply
	fl.PutRequest(req)
	return rep
}

// Node is a participant in the simulated system.
type Node interface {
	// ID returns the node's stable address.
	ID() ids.NodeID
	// Handle processes one delivered message, possibly sending others.
	// The engine never invokes Handle concurrently for one node. Handlers
	// of different nodes may run at the same time, on different contexts,
	// when every registered node is Isolated: a handler then touches only
	// its own node's state, reaches other nodes by message only, and arms
	// timers (After) only for its own node.
	Handle(ctx Context, m msg.Message)
}

// Starter is implemented by nodes that inject initial traffic (clients).
// The engine calls Start exactly once before delivering any messages.
type Starter interface {
	Start(ctx Context)
}

// CountHop increments the hop counter embedded in m. The engine calls it on
// every Send.
func CountHop(m msg.Message) {
	switch t := m.(type) {
	case *msg.Request:
		t.Hops++
	case *msg.Reply:
		t.Hops++
	}
}
