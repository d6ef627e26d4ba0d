package sim

import (
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/obs"
)

// Origin is the origin server: it resolves every request addressed to it
// and starts the reply on its way back along the recorded forwarding path.
// "We don't expect the loss of messages and ... always either one of the
// proxy objects or the actual origin server will finally resolve the
// request" (§III.1).
type Origin struct {
	// resolved counts requests the origin had to answer (cluster-level
	// miss counter, cross-checked against client-side accounting).
	resolved uint64

	tracer *obs.Tracer
}

var _ Isolated = (*Origin)(nil)

// NewOrigin returns the origin server node.
func NewOrigin() *Origin { return &Origin{} }

// ID implements Node.
func (o *Origin) ID() ids.NodeID { return ids.Origin }

// Isolated implements Isolated: a handler touches only the resolved count.
func (o *Origin) Isolated() bool { return true }

// Resolved returns how many requests the origin answered.
func (o *Origin) Resolved() uint64 { return o.resolved }

// SetTracer installs the request tracer (before the run starts).
func (o *Origin) SetTracer(t *obs.Tracer) { o.tracer = t }

// Handle implements Node.
func (o *Origin) Handle(ctx Context, m msg.Message) {
	req, ok := m.(*msg.Request)
	if !ok {
		// Replies never target the origin; ignore defensively.
		return
	}
	o.resolved++
	if o.tracer.Enabled(obs.KindOriginResolve) {
		e := obs.Ev(obs.KindOriginResolve, ids.Origin)
		e.At = ctx.VNow()
		e.Req = req.ID
		e.Obj = req.Object
		e.Hops = int32(req.Hops)
		o.tracer.Emit(e)
	}
	rep := Resolve(ctx, req)
	rep.FromOrigin = true
	// Resolver stays None: "a NULL value stays for the data from the
	// origin server and the [first backwarding] proxy will be assigned
	// as the official resolver" (§IV.2).
	next, _ := rep.NextBackward()
	rep.To = next
	ctx.Send(rep)
}
