package sim

import "github.com/adc-sim/adc/internal/msg"

// Recycler is implemented by contexts that own a message freelist — the
// single-threaded engines. Nodes never use it directly; they go through
// NewRequest, Resolve and Finish below, which degrade gracefully to plain
// allocation on contexts without freelists (the concurrent agent runtime,
// where messages cross goroutines and engine-owned recycling would race).
//
// Ownership rules (see internal/msg): a handler owns the message it
// received. Handing a message to Recycle-side methods ends that ownership.
// The engines deliberately do NOT recycle messages dropped by the fault
// filter at Send time: the sender may still hold the pointer it just
// passed in (Send returning normally gives it no signal that the message
// died), so a dropped message is left to the garbage collector instead.
type Recycler interface {
	// AcquireRequest returns a zeroed request, recycled when possible.
	AcquireRequest() *msg.Request
	// AcquireReply returns a zeroed reply, recycled when possible.
	AcquireReply() *msg.Reply
	// ReleaseRequest recycles a request the caller owns. A Path that was
	// transferred to a reply must be nilled first.
	ReleaseRequest(r *msg.Request)
	// ReleaseReply recycles a reply the caller owns.
	ReleaseReply(r *msg.Reply)
}

// NewRequest returns a request to fill and send, drawn from the engine
// freelist when ctx owns one. Traffic sources use it instead of
// &msg.Request{}.
func NewRequest(ctx Context) *msg.Request {
	if r, ok := ctx.(Recycler); ok {
		return r.AcquireRequest()
	}
	return &msg.Request{}
}

// Resolve consumes req and returns the reply answering it, initialized to
// retrace the recorded forwarding path (the backwarding start of §III.2).
// Ownership of req transfers here: its Path moves to the reply and the
// struct returns to the engine freelist, so the caller must not touch req
// afterwards. The caller sets Resolver/Cached/FromOrigin on the reply
// before sending.
func Resolve(ctx Context, req *msg.Request) *msg.Reply {
	r, ok := ctx.(Recycler)
	if !ok {
		return msg.ReplyTo(req)
	}
	rep := r.AcquireReply()
	rep.InitFrom(req)
	req.Path = nil // backing array now owned by the reply
	r.ReleaseRequest(req)
	return rep
}

// Finish recycles a terminally delivered message — one the handler will
// neither forward nor retain (a reply arriving at its client). Calling it
// is optional: without it the message is simply garbage collected.
func Finish(ctx Context, m msg.Message) {
	r, ok := ctx.(Recycler)
	if !ok {
		return
	}
	switch t := m.(type) {
	case *msg.Request:
		r.ReleaseRequest(t)
	case *msg.Reply:
		r.ReleaseReply(t)
	}
}
