// Package obs is the observability layer: the simulator's request-path
// tracer and the HTTP farm's span ring. The tracer records one Event per
// protocol step — injection, forwarding, loop detection, cache hits,
// backwarding, promotion/demotion, drops, retransmissions — keyed by
// RequestID; EventSpans rebuilds them as spans, so one builder
// reconstructs complete request trees from either runtime (including the
// recovery protocol's retransmission chains, which run under fresh
// request IDs linked by Prev).
//
// The paper's central claims are path properties — convergence to one
// resolver per object via backwarding (§IV.2), bounded forwarding chains
// (§III.1) — so the tracer exists to make paths first-class data: span
// dumps (WriteSpanDumps) for cmd/adctrace, Chrome trace_event for
// chrome://tracing, and derived metrics such as per-object convergence
// time.
//
// Cost discipline: a nil *Tracer is the disabled state. Every emit site
// guards with a nil check plus Enabled(kind), so a disabled tracer adds one
// predictable branch and zero allocations to the hot path, keeping the
// golden determinism tests byte-identical.
package obs

import (
	"fmt"
	"sync"

	"github.com/adc-sim/adc/internal/ids"
)

// Kind identifies one traced protocol step.
type Kind uint8

// Event kinds. The numeric values are stable: they appear in JSONL output.
const (
	// KindInject is a client issuing the first attempt of a logical
	// request (Node=client, To=entry proxy).
	KindInject Kind = iota
	// KindForward is a proxy forwarding a request (Node=proxy, To=next
	// hop, Arg=forward reason).
	KindForward
	// KindHit is a local cache hit at a proxy (Node=proxy, Loc=Node).
	KindHit
	// KindOriginResolve is the origin server answering a request.
	KindOriginResolve
	// KindBackward is a proxy processing a backwarding reply (Node=proxy,
	// To=next backward hop, Loc=the location learned into the tables,
	// Arg=encoded table outcome).
	KindBackward
	// KindDeliver is a reply reaching its client (Arg bit 0 = FromOrigin,
	// Loc=resolver).
	KindDeliver
	// KindDrop is the engine discarding an in-flight message
	// (Arg=drop cause; Node=sender, or None for crash-time drops).
	KindDrop
	// KindTimeout is a client attempt timing out (recovery protocol).
	KindTimeout
	// KindRetry is a client retransmitting under a fresh ID (Req=new
	// attempt, Prev=the superseded attempt, Arg=retry ordinal).
	KindRetry
	// KindAbandon is a client giving up after the retry budget.
	KindAbandon
	// KindExpire is a proxy expiring a pending loop-detection entry
	// (Arg=pass count surrendered).
	KindExpire
	// KindInvalidate is a proxy demoting a stale learned location.
	KindInvalidate
	// KindStaleReply is a duplicate/late reply discarded by a client.
	KindStaleReply

	numKinds
)

// kindNames maps kinds to their stable JSONL spelling.
var kindNames = [numKinds]string{
	KindInject:        "inject",
	KindForward:       "forward",
	KindHit:           "hit",
	KindOriginResolve: "origin",
	KindBackward:      "backward",
	KindDeliver:       "deliver",
	KindDrop:          "drop",
	KindTimeout:       "timeout",
	KindRetry:         "retry",
	KindAbandon:       "abandon",
	KindExpire:        "expire",
	KindInvalidate:    "invalidate",
	KindStaleReply:    "stale-reply",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Forward reasons (Event.Arg on KindForward events).
const (
	// ReasonLearned: a mapping-table entry directed the forward (Fig. 6).
	ReasonLearned int64 = iota
	// ReasonRandom: no entry; a random peer was chosen.
	ReasonRandom
	// ReasonSelfOrigin: the learned location is this proxy itself but the
	// object is not cached here, so the query goes to the origin (§III.3.2).
	// The LRU baselines use it for their fixed upstream: the origin, or a
	// hierarchy leaf's root.
	ReasonSelfOrigin
	// ReasonLoop: loop detected (the request ID was already pending).
	ReasonLoop
	// ReasonMaxHops: the forwarding bound was reached.
	ReasonMaxHops
	// ReasonHashed: the hashing baseline's assigned-proxy forward, a
	// hand-over — the forwarder leaves the reply path (protocol.Policy).
	ReasonHashed
	// ReasonFailover: the learned location (or every peer) is marked down
	// by the health subsystem, so the forward goes to the origin instead
	// (HTTP farm fault tolerance).
	ReasonFailover
)

// ForwardReasonString names a KindForward Arg value.
func ForwardReasonString(arg int64) string {
	switch arg {
	case ReasonLearned:
		return "learned"
	case ReasonRandom:
		return "random"
	case ReasonSelfOrigin:
		return "self-origin"
	case ReasonLoop:
		return "loop"
	case ReasonMaxHops:
		return "max-hops"
	case ReasonHashed:
		return "hashed"
	case ReasonFailover:
		return "failover"
	default:
		return fmt.Sprintf("reason(%d)", arg)
	}
}

// Drop causes (Event.Arg on KindDrop events).
const (
	// DropFilter: a SetDropFilter hook discarded the send.
	DropFilter int64 = iota
	// DropLoss: the fault plan's message loss hit the transfer.
	DropLoss
	// DropCrash: the destination was crashed at delivery time.
	DropCrash
)

// DropCauseString names a KindDrop Arg value.
func DropCauseString(arg int64) string {
	switch arg {
	case DropFilter:
		return "filter"
	case DropLoss:
		return "loss"
	case DropCrash:
		return "crash"
	default:
		return fmt.Sprintf("cause(%d)", arg)
	}
}

// Outcome encoding for KindBackward/KindHit events: the mapping-table
// transition Update performed, packed into Arg. From and To are
// core.Kind values (0 none, 1 caching, 2 multiple, 3 single); obs avoids
// importing core so the dependency stays ids-only.
const (
	outcomeToShift   = 0
	outcomeFromShift = 4
	outcomeFlagShift = 8

	// OutcomeCacheEvicted marks that the update evicted a caching-table
	// entry; OutcomeMultipleEvicted a multiple-table entry; OutcomeDropped
	// that a single-table candidate was dropped on the floor.
	OutcomeCacheEvicted    int64 = 1 << (outcomeFlagShift + 0)
	OutcomeMultipleEvicted int64 = 1 << (outcomeFlagShift + 1)
	OutcomeDropped         int64 = 1 << (outcomeFlagShift + 2)
)

// EncodeOutcome packs an Update outcome into an Event.Arg.
func EncodeOutcome(from, to int, cacheEvicted, multipleEvicted, dropped bool) int64 {
	arg := int64(to)<<outcomeToShift | int64(from)<<outcomeFromShift
	if cacheEvicted {
		arg |= OutcomeCacheEvicted
	}
	if multipleEvicted {
		arg |= OutcomeMultipleEvicted
	}
	if dropped {
		arg |= OutcomeDropped
	}
	return arg
}

// DecodeOutcome unpacks an EncodeOutcome Arg.
func DecodeOutcome(arg int64) (from, to int, cacheEvicted, multipleEvicted, dropped bool) {
	to = int(arg>>outcomeToShift) & 0xF
	from = int(arg>>outcomeFromShift) & 0xF
	return from, to, arg&OutcomeCacheEvicted != 0, arg&OutcomeMultipleEvicted != 0, arg&OutcomeDropped != 0
}

// tableKindNames mirrors core.Kind's String values.
var tableKindNames = [...]string{"none", "caching", "multiple", "single"}

// TableKindString names a table kind from a decoded outcome.
func TableKindString(k int) string {
	if k >= 0 && k < len(tableKindNames) {
		return tableKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// OutcomeString renders a packed outcome compactly, e.g. "single→caching"
// or "multiple→multiple (cache-evict)".
func OutcomeString(arg int64) string { return string(appendOutcome(nil, arg)) }

// appendOutcome appends OutcomeString's rendering of arg to b.
func appendOutcome(b []byte, arg int64) []byte {
	from, to, ce, me, dr := DecodeOutcome(arg)
	b = append(append(append(b, TableKindString(from)...), "→"...), TableKindString(to)...)
	sep := " ("
	for _, f := range [...]struct {
		set  bool
		name string
	}{{ce, "cache-evict"}, {me, "multiple-evict"}, {dr, "dropped"}} {
		if f.set {
			b = append(append(b, sep...), f.name...)
			sep = " "
		}
	}
	if sep == " " {
		b = append(b, ')')
	}
	return b
}

// Event is one traced protocol step. Seq is the tracer-assigned emission
// order — the authoritative ordering on the single-threaded engine, where
// it equals delivery order. At is virtual time in ticks, always 0 under the
// zero-cost sequential runtime.
type Event struct {
	Seq  uint64
	At   int64
	Kind Kind
	// Node is the node the step happened at.
	Node ids.NodeID
	// Req identifies the attempt (0 for events without one, e.g.
	// invalidations).
	Req ids.RequestID
	Obj ids.ObjectID
	// To is the destination of forwards/backwards/drops; None otherwise.
	To ids.NodeID
	// Loc is the object location the step established (hit: the proxy
	// itself; backward: the location learned into the tables; deliver:
	// the resolver); None otherwise.
	Loc ids.NodeID
	// Prev links a retry to the attempt it supersedes.
	Prev ids.RequestID
	// Hops is the message's hop counter at the step.
	Hops int32
	// Arg is kind-specific (forward reason, drop cause, packed outcome,
	// FromOrigin flag, retry ordinal, expired pass count).
	Arg int64
}

// Ev returns an Event of kind k at node with both node-reference fields
// cleared. The NodeID zero value is Proxy[0], so a struct-literal Event
// that forgets To or Loc silently references a real proxy; Ev makes the
// unset state explicit once.
func Ev(k Kind, node ids.NodeID) Event {
	return Event{Kind: k, Node: node, To: ids.None, Loc: ids.None}
}

// Tracer accumulates events. A nil *Tracer is the disabled tracer: Enabled
// returns false, so guarded call sites skip event construction entirely.
// Emission is mutex-protected, making one tracer safe to share across
// goroutines; on the single-threaded engines the uncontended lock is a few
// nanoseconds per event. The HTTP farm does not emit events: its request
// paths are spans (SpanRing), built into trees by the same BuildSpanTrees.
type Tracer struct {
	mu   sync.Mutex
	mask uint64
	seq  uint64
	ev   []Event
}

// New returns a tracer recording the given kinds, or every kind when none
// are named.
func New(kinds ...Kind) *Tracer {
	t := &Tracer{}
	if len(kinds) == 0 {
		t.mask = 1<<uint(numKinds) - 1
	} else {
		for _, k := range kinds {
			t.mask |= 1 << uint(k)
		}
	}
	return t
}

// Enabled reports whether kind k is recorded. Safe on a nil tracer, where
// it is the disabled fast path.
func (t *Tracer) Enabled(k Kind) bool {
	return t != nil && t.mask&(1<<uint(k)) != 0
}

// Emit records e, assigning its Seq. Events of kinds the tracer does not
// record are discarded (callers normally guard with Enabled first).
func (t *Tracer) Emit(e Event) {
	if !t.Enabled(e.Kind) {
		return
	}
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	t.ev = append(t.ev, e)
	t.mu.Unlock()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ev)
}

// Events returns a snapshot copy of the recorded events in emission order,
// which is strictly increasing Seq.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.ev))
	copy(out, t.ev)
	return out
}

// Time returns the ordering value tools should use for an event: At when
// it is set, else Seq (sequential runs, where every event is at time 0).
func (e Event) Time() int64 {
	if e.At != 0 {
		return e.At
	}
	return int64(e.Seq)
}
