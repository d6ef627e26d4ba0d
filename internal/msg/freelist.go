package msg

import "github.com/adc-sim/adc/internal/ids"

// Freelist recycles Request and Reply structs and their Path backing
// arrays. Each goroutine of the engine in internal/sim owns one freelist
// (one while it delivers one event at a time, two inside a lookahead
// window), so no locking is needed — which is exactly why this is not a
// sync.Pool. In the steady state of a closed-loop run every message
// of a request chain comes from and returns to the freelist, making the
// simulation hot path allocation-free.
//
// Ownership follows the mutate-and-forward rule documented in the package
// comment: a handler owns the message it received. Putting a message back
// is the explicit final step of that ownership — the caller must not touch
// the message afterwards, and must first nil any Path it handed to another
// message.
type Freelist struct {
	requests []*Request
	replies  []*Reply
	paths    [][]ids.NodeID
}

// pathCap is the initial capacity of freshly allocated Path slices; deep
// random walks grow them once and the grown array is recycled thereafter.
const pathCap = 8

// GetRequest returns a zeroed request with an empty Path ready to append
// to, reusing recycled memory when available.
func (f *Freelist) GetRequest() *Request {
	if n := len(f.requests); n > 0 {
		r := f.requests[n-1]
		f.requests[n-1] = nil
		f.requests = f.requests[:n-1]
		r.Path = f.getPath()
		return r
	}
	return &Request{Path: f.getPath()}
}

// PutRequest recycles r. Any Path still attached is reclaimed with it, so
// callers that transferred the path to a reply must nil r.Path first.
func (f *Freelist) PutRequest(r *Request) {
	f.putPath(r.Path)
	*r = Request{}
	f.requests = append(f.requests, r)
}

// GetReply returns a zeroed reply, reusing recycled memory when available.
// The caller typically fills it via InitFrom, which installs the request's
// path; no path is attached here.
func (f *Freelist) GetReply() *Reply {
	if n := len(f.replies); n > 0 {
		r := f.replies[n-1]
		f.replies[n-1] = nil
		f.replies = f.replies[:n-1]
		return r
	}
	return &Reply{}
}

// PutReply recycles r and reclaims its Path backing array (backwarding has
// shrunk the slice to zero length by terminal delivery, but the capacity
// is still warm).
func (f *Freelist) PutReply(r *Reply) {
	f.putPath(r.Path)
	*r = Reply{}
	f.replies = append(f.replies, r)
}

func (f *Freelist) getPath() []ids.NodeID {
	if n := len(f.paths); n > 0 {
		p := f.paths[n-1]
		f.paths[n-1] = nil
		f.paths = f.paths[:n-1]
		return p[:0]
	}
	return make([]ids.NodeID, 0, pathCap)
}

func (f *Freelist) putPath(p []ids.NodeID) {
	if cap(p) == 0 {
		return
	}
	f.paths = append(f.paths, p[:0])
}

// Len returns how many recycled requests and replies f holds.
func (f *Freelist) Len() int { return len(f.requests) + len(f.replies) }

// Balance evens out what f and g hold, moving recycled requests, replies
// and paths from whichever holds more to the other. Messages sent by one
// goroutine are recycled by whichever delivers their last hop, so the
// engine balances its goroutines' freelists between lookahead windows and
// neither drains while the other grows.
func (f *Freelist) Balance(g *Freelist) {
	balance(&f.requests, &g.requests)
	balance(&f.replies, &g.replies)
	balance(&f.paths, &g.paths)
}

// balance moves half the difference between a and b from the longer to the
// shorter.
func balance[T any](a, b *[]T) {
	if len(*a) < len(*b) {
		a, b = b, a
	}
	keep := len(*a) - (len(*a)-len(*b))/2
	*b = append(*b, (*a)[keep:]...)
	clear((*a)[keep:])
	*a = (*a)[:keep]
}
