// Package ids defines the small identifier types shared by every layer of
// the simulator: object IDs (the stand-in for URLs), node IDs (proxies,
// clients, and the origin server), and globally unique request IDs.
//
// The paper's testbed "only focuses on the handling of requested URLs"
// (§V.1); we follow it and identify objects by a 64-bit ID instead of a
// string URL, which keeps mapping tables compact (the paper suggests MD5
// digests for the same reason in §V.3.3).
package ids

import (
	"fmt"
	"strconv"
)

// ObjectID identifies one cacheable object (the paper's OBJ-ID / URL).
type ObjectID uint64

// String renders the object ID in the paper's "www.xyNNN" style, which keeps
// table dumps readable and comparable with the paper's sample figures.
func (o ObjectID) String() string {
	var buf [32]byte
	return string(o.Append(buf[:0]))
}

// Append appends String's rendering to b.
func (o ObjectID) Append(b []byte) []byte {
	return strconv.AppendUint(append(b, "www.xy"...), uint64(o), 10)
}

// NodeID identifies a participant of the simulated system. Proxies are
// numbered from 0; the origin server and clients use reserved ranges so a
// NodeID is unambiguous across the whole cluster.
type NodeID int32

// Reserved NodeID values. Proxy IDs are small non-negative integers; the
// origin server and clients live in disjoint negative ranges.
const (
	// None marks an unset node reference, e.g. the resolver field of a
	// reply that has not passed a proxy yet (the paper's NULL resolver).
	None NodeID = -1

	// Origin is the origin server that can always resolve a request.
	Origin NodeID = -2

	// clientBase is the first client ID, growing downwards.
	clientBase NodeID = -10
)

// Client returns the NodeID of the i-th client driver (i >= 0).
func Client(i int) NodeID { return clientBase - NodeID(i) }

// IsClient reports whether n addresses a client driver.
func (n NodeID) IsClient() bool { return n <= clientBase }

// IsProxy reports whether n addresses a proxy agent.
func (n NodeID) IsProxy() bool { return n >= 0 }

// ClientIndex returns the index i such that Client(i) == n.
// It panics if n is not a client ID; callers must check IsClient first.
func (n NodeID) ClientIndex() int {
	if !n.IsClient() {
		panic(fmt.Sprintf("ids: %v is not a client", n))
	}
	return int(clientBase - n)
}

// String implements fmt.Stringer using the paper's "Proxy[i]" notation.
func (n NodeID) String() string {
	switch n {
	case None:
		return "None"
	case Origin:
		return "Origin"
	}
	var buf [24]byte
	return string(n.Append(buf[:0]))
}

// Append appends String's rendering to b.
func (n NodeID) Append(b []byte) []byte {
	switch {
	case n == None:
		return append(b, "None"...)
	case n == Origin:
		return append(b, "Origin"...)
	case n.IsClient():
		b = strconv.AppendInt(append(b, "Client["...), int64(n.ClientIndex()), 10)
	default:
		b = strconv.AppendInt(append(b, "Proxy["...), int64(n), 10)
	}
	return append(b, ']')
}

// RequestID is the globally unique request identifier used for loop
// detection. The paper bases it on "the client's IP address and an internal
// request counter" (§III.1); we pack a client index in the high 16 bits and
// a per-client counter in the low 48 bits.
type RequestID uint64

// NewRequestID builds the unique ID for the counter-th request of client i.
func NewRequestID(client int, counter uint64) RequestID {
	return RequestID(uint64(client)<<48 | (counter & (1<<48 - 1)))
}

// ClientIndex extracts the issuing client index.
func (r RequestID) ClientIndex() int { return int(uint64(r) >> 48) }

// Counter extracts the per-client request counter.
func (r RequestID) Counter() uint64 { return uint64(r) & (1<<48 - 1) }

// String implements fmt.Stringer.
func (r RequestID) String() string {
	var buf [32]byte
	return string(r.Append(buf[:0]))
}

// Append appends String's rendering, "req(client:counter)", to b.
func (r RequestID) Append(b []byte) []byte {
	b = strconv.AppendInt(append(b, "req("...), int64(r.ClientIndex()), 10)
	b = strconv.AppendUint(append(b, ':'), r.Counter(), 10)
	return append(b, ')')
}
