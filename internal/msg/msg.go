// Package msg defines the two message kinds exchanged in the system —
// requests travelling along the forwarding path and replies retracing it
// during backwarding (§III.1–2 of the paper) — plus helpers to manage the
// recorded path.
//
// Messages are plain data; the engine in internal/sim moves them between
// nodes. They pass messages by pointer within a process, so handlers must
// treat a received message as owned (mutate-and-forward is the norm,
// mirroring how a real proxy rewrites a packet before relaying it).
package msg

import "github.com/adc-sim/adc/internal/ids"

// Message is implemented by every message kind the engine can deliver.
type Message interface {
	// Dest returns the node the message is addressed to.
	Dest() ids.NodeID
}

// Request is a client request for one object, forwarded proxy-to-proxy until
// a cache hit, a loop, the hop bound, or the origin server resolves it.
type Request struct {
	// To is the current destination of the message.
	To ids.NodeID

	// ID is the globally unique request ID used for loop detection.
	ID ids.RequestID

	// Object is the requested object (the paper's URL).
	Object ids.ObjectID

	// Client is the node that issued the request and receives the reply.
	Client ids.NodeID

	// Sender is the node the message was last sent by (client or proxy);
	// the paper's Request.setSender/getSender.
	Sender ids.NodeID

	// Path records every proxy that forwarded the request, in visit
	// order. A proxy may appear twice when a random walk loops; the
	// reply visits it twice as well, exactly as the backwarding rule
	// requires. The path never includes the node that finally resolves.
	Path []ids.NodeID

	// Hops counts message transfers so far (client-proxy, proxy-proxy
	// and proxy-server transfers all count, §V.2.2).
	Hops int

	// MaxHops bounds the number of proxy forwardings; when Path reaches
	// this length the next proxy sends the request to the origin server.
	// Zero or negative means unbounded (the paper's default: the
	// parameter "can be used but [was] not applied", §V.1).
	MaxHops int

	// SentAt is the virtual time the client sent the logical request's
	// first attempt; a retransmission carries its first attempt's value,
	// so a response time measured from it is the one the user perceives.
	SentAt int64
}

// Dest implements Message.
func (r *Request) Dest() ids.NodeID { return r.To }

// AtMaxHops reports whether the forwarding bound has been reached
// (the paper's Request.isMaxHops()).
func (r *Request) AtMaxHops() bool {
	return r.MaxHops > 0 && len(r.Path) >= r.MaxHops
}

// Reply carries a resolved object back along the forwarding path
// (backwarding). The object payload itself is not modelled, matching the
// paper's testbed which "will not cache and transfer the actual objects
// data" (§V.1).
type Reply struct {
	// To is the current destination of the message.
	To ids.NodeID

	// ID and Object identify the request being answered.
	ID     ids.RequestID
	Object ids.ObjectID

	// Client is the final destination of the backwarding path.
	Client ids.NodeID

	// Resolver is the proxy the multicast group should agree on as the
	// object's location. ids.None plays the paper's NULL role: the data
	// came straight from the origin server and the first proxy on the
	// backwarding path will claim the resolver slot (§IV.2).
	Resolver ids.NodeID

	// Cached reports whether some proxy already holds the object in its
	// cache (the paper's reply.notCached() is !Cached).
	Cached bool

	// FromOrigin marks replies whose data was produced by the origin
	// server; the client counts such requests as misses.
	FromOrigin bool

	// Path is the remaining backwarding path: proxies still to visit, in
	// forwarding order. Backward pops from the tail.
	Path []ids.NodeID

	// Replicas advertises the resolver's replica set for the object — the
	// additional proxies known to hold it beyond the resolver itself.
	// Always nil in stock ADC; the hot-object replication extension fills
	// it so backwarding teaches the path a *set* of locations.
	Replicas []ids.NodeID

	// Replicate asks the path proxies to check Replicas for their own ID
	// and, on a match, adopt the passing object into their cache (a
	// replica push piggybacked on the reply — no extra round trip).
	Replicate bool

	// AvgHint carries the resolver's moving-average inter-request gap for
	// the object (Entry.Avg) when Replicate is set, 0 otherwise. Adopting
	// proxies seed their forced cache entry with it, so a pushed replica
	// competes in the caching table with the popularity the holder
	// actually measured instead of starting cold and being evicted before
	// its first local hit.
	AvgHint int64

	// Hops counts message transfers including the request's own.
	Hops int

	// PathLen preserves the forwarding path length at resolve time for
	// metrics; Path itself shrinks during backwarding.
	PathLen int

	// SentAt is the answered request's SentAt, handed back to the client.
	SentAt int64
}

// Dest implements Message.
func (r *Reply) Dest() ids.NodeID { return r.To }

// NextBackward pops the next node of the backwarding path. When the path is
// exhausted it returns the client, which terminates backwarding. The second
// return reports whether the hop still belongs to the proxy path.
func (r *Reply) NextBackward() (ids.NodeID, bool) {
	if n := len(r.Path); n > 0 {
		next := r.Path[n-1]
		r.Path = r.Path[:n-1]
		return next, true
	}
	return r.Client, false
}

// InitFrom initializes r as the reply for req, retracing the request's
// recorded path. It overwrites every field, so a recycled reply comes out
// identical to a fresh one. The request's Path backing array transfers to
// the reply: callers recycling req must nil req.Path afterwards.
func (r *Reply) InitFrom(req *Request) {
	*r = Reply{
		ID:       req.ID,
		Object:   req.Object,
		Client:   req.Client,
		Resolver: ids.None,
		Path:     req.Path,
		Hops:     req.Hops,
		PathLen:  len(req.Path),
		SentAt:   req.SentAt,
	}
}

// Compile-time interface checks.
var (
	_ Message = (*Request)(nil)
	_ Message = (*Reply)(nil)
)
