package httpproxy

import (
	"net/http"
	"strconv"
	"time"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/obs"
)

// Tracing configures cross-proxy span tracing. The zero value disables it:
// no ring, no IDs, no headers — the serving path pays one nil check.
type Tracing struct {
	// Enabled turns the layer on.
	Enabled bool
	// SampleEvery samples one entry request in N (values < 2 trace every
	// entry request). Forwarded hops never sample on their own: a hop is
	// traced exactly when the entry proxy's decision, carried in the
	// X-Adc-Trace header, says so — sampling is per request, not per hop.
	SampleEvery int
	// RingSize bounds the per-proxy span buffer behind /debug/trace
	// (0 = obs.DefaultSpanRingSize).
	RingSize int
}

// withDefaults normalizes the policy; disabled collapses to the zero value.
func (t Tracing) withDefaults() Tracing {
	if !t.Enabled {
		return Tracing{}
	}
	if t.SampleEvery < 1 {
		t.SampleEvery = 1
	}
	return t
}

// nowUs is the span clock: this process's wall clock in unix microseconds.
// Cross-proxy alignment happens at merge time (obs.MergeDumps), not here.
func nowUs() int64 { return time.Now().UnixMicro() }

// spanSeqMask keeps the per-proxy counter in the low 48 bits of span and
// trace IDs; the proxy index + 1 occupies the top 16, so IDs minted by
// different proxies never collide and 0 stays the "no span" sentinel.
const spanSeqMask = 1<<48 - 1

// newSpanID allocates a span ID unique across the farm.
func (p *Proxy) newSpanID() uint64 {
	return (uint64(p.id)+1)<<48 | p.spanSeq.Add(1)&spanSeqMask
}

// spanCtx is one traced request's context at one proxy. A nil *spanCtx is
// the untraced state (tracing off, or this request not sampled); every
// method is safe on nil, so call sites thread it through unconditionally.
type spanCtx struct {
	p     *Proxy
	trace uint64
	// self is this proxy's server span ID — the parent every child span
	// recorded here links to.
	self uint64
	// root is the server span's own parent — the sender's forward span ID
	// from X-Adc-Span, 0 at the entry proxy.
	root uint64
	// tag, when set, suffixes child span details ("hedge", "retry=2") so
	// duplicate fetch branches are tellable apart in the tree.
	tag string
}

// spanContext decides whether this request is traced and builds its
// context. A request carrying X-Adc-Trace was sampled at its entry proxy
// and joins unconditionally; an entry request (no header, forwards == 0)
// rolls the sampler. Sampling uses a dedicated atomic counter, NOT the
// protocol core's rng, whose draw sequence is part of seeded-run determinism.
func (p *Proxy) spanContext(h http.Header, forwards int) *spanCtx {
	if p.spans == nil {
		return nil
	}
	if ts := h.Get(HeaderTrace); ts != "" {
		trace, err := strconv.ParseUint(ts, 16, 64)
		if err != nil || trace == 0 {
			return nil
		}
		parent, _ := strconv.ParseUint(h.Get(HeaderSpan), 16, 64)
		return &spanCtx{p: p, trace: trace, self: p.newSpanID(), root: parent}
	}
	if forwards > 0 {
		return nil // mid-chain hop of an unsampled request
	}
	n := p.traceSeq.Add(1)
	if p.tracing.SampleEvery > 1 && n%uint64(p.tracing.SampleEvery) != 0 {
		return nil
	}
	return &spanCtx{p: p, trace: (uint64(p.id)+1)<<48 | n&spanSeqMask, self: p.newSpanID()}
}

// child allocates an ID for a span that must exist before it finishes —
// the forward span whose ID travels in X-Adc-Span. Returns 0 when untraced.
func (sc *spanCtx) child() uint64 {
	if sc == nil {
		return 0
	}
	return sc.p.newSpanID()
}

// tagged returns a copy whose child spans carry tag in their detail; nil
// stays nil.
func (sc *spanCtx) tagged(tag string) *spanCtx {
	if sc == nil {
		return nil
	}
	c := *sc
	c.tag = tag
	return &c
}

// setHeaders stamps an outgoing upstream request with the trace context so
// the receiving proxy's server span parents onto spanID.
func (sc *spanCtx) setHeaders(h http.Header, spanID uint64) {
	if sc == nil {
		return
	}
	h.Set(HeaderTrace, strconv.FormatUint(sc.trace, 16))
	h.Set(HeaderSpan, strconv.FormatUint(spanID, 16))
}

// record appends a finished child span (parent = this proxy's server span)
// under a fresh ID.
func (sc *spanCtx) record(stage string, startUs int64, obj ids.ObjectID, detail, errMsg string) {
	sc.recordID(sc.child(), stage, startUs, obj, detail, errMsg)
}

// recordID appends a finished child span under a pre-allocated ID.
func (sc *spanCtx) recordID(id uint64, stage string, startUs int64, obj ids.ObjectID, detail, errMsg string) {
	if sc == nil || id == 0 {
		return
	}
	if sc.tag != "" {
		if detail != "" {
			detail += " "
		}
		detail += sc.tag
	}
	sc.p.spans.Add(obs.Span{
		Trace: sc.trace, ID: id, Parent: sc.self, Node: int32(sc.p.id),
		Stage: stage, Obj: uint64(obj), Start: startUs, End: nowUs(),
		Detail: detail, Err: errMsg,
	})
}

// finishServer closes the request's own server span, parented on the
// sender's forward span (or nothing, at the entry proxy).
func (sc *spanCtx) finishServer(startUs int64, obj ids.ObjectID, errMsg string) {
	if sc == nil {
		return
	}
	sc.p.spans.Add(obs.Span{
		Trace: sc.trace, ID: sc.self, Parent: sc.root, Node: int32(sc.p.id),
		Stage: obs.SpanServer, Obj: uint64(obj), Start: startUs, End: nowUs(),
		Err: errMsg,
	})
}

// TraceDump snapshots this proxy's span ring for /debug/trace. With
// tracing off it returns an empty dump (clock still stamped, so scrapers
// need no special case).
func (p *Proxy) TraceDump() obs.SpanDump {
	return obs.SpanDump{
		Proxy:   p.id.String(),
		Node:    int32(p.id),
		NowUs:   nowUs(),
		Dropped: p.spans.Dropped(),
		Spans:   p.spans.Snapshot(),
	}
}
