package obs

import (
	"strconv"

	"github.com/adc-sim/adc/internal/ids"
)

// SpanAttempt is one transmission of an event-traced request: an inject or
// retry through its delivery, timeout or abandonment (EventSpans).
const SpanAttempt = "attempt"

// stepBit marks step span IDs (event Seq numbers), keeping them disjoint
// from attempt span IDs (request IDs).
const stepBit = 1 << 63

// EventSpans rebuilds an event trace as spans, so simulator traces are
// written (WriteSpanDumps), reconstructed, printed and exported through
// BuildSpanTrees, FormatSpanTree and WriteChromeSpans like the farm's own
// spans.
//
// Each inject or retry becomes one SpanAttempt span: Trace is the first
// attempt's request ID, ID the attempt's request ID, Parent the attempt a
// retry supersedes (0 for an inject) and Node the client. Err is empty only
// if the attempt was delivered; otherwise it is "abandoned", "timed out" or
// "undelivered". Every event carrying a request ID, the inject or retry
// included, becomes a zero-duration child span of its attempt, staged by
// kind. Events without a request ID are dropped.
//
// Under BuildSpanTrees a delivered request is complete, a retried or
// undelivered one truncated, and one whose first attempt or a retry's
// predecessor never surfaced orphaned.
//
// events must be in strictly increasing Seq order, as Tracer.Events returns
// them and Validate checks: a retry finds its predecessor's attempt only if
// that came first, and steps are listed in the order given.
func EventSpans(events []Event) []Span {
	n, attempts := 0, 0
	for _, e := range events {
		if e.Req == 0 {
			continue
		}
		n++
		if e.Kind == KindInject || e.Kind == KindRetry {
			attempts++
		}
	}
	spans := make([]Span, 0, n+attempts)

	// Attempts first, so a retry finds its predecessor's trace.
	attempt := make(map[ids.RequestID]int, attempts) // request ID → index in spans
	for _, e := range events {
		if e.Req == 0 || e.Kind != KindInject && e.Kind != KindRetry {
			continue
		}
		if _, dup := attempt[e.Req]; dup {
			continue
		}
		a := Span{
			Trace: uint64(e.Req), ID: uint64(e.Req), Node: int32(e.Node), Stage: SpanAttempt,
			Obj: uint64(e.Obj), Start: e.Time(), End: e.Time(), Err: "undelivered",
		}
		if e.Kind == KindRetry {
			// An unknown predecessor still names the trace, so a chain that
			// lost its head stays one (orphaned) tree.
			a.Trace, a.Parent = uint64(e.Prev), uint64(e.Prev)
			if i, ok := attempt[e.Prev]; ok {
				a.Trace = spans[i].Trace
			}
		}
		attempt[e.Req] = len(spans)
		spans = append(spans, a)
	}

	for _, e := range events {
		if e.Req == 0 {
			continue
		}
		s := Span{
			Trace: uint64(e.Req), ID: e.Seq | stepBit, Parent: uint64(e.Req), Node: int32(e.Node),
			Stage: e.Kind.String(), Obj: uint64(e.Obj), Start: e.Time(), End: e.Time(),
			Detail: eventDetail(e),
		}
		if i, ok := attempt[e.Req]; ok {
			a := &spans[i]
			s.Trace = a.Trace
			a.End = max(a.End, s.End)
			switch {
			case e.Kind == KindDeliver:
				a.Err = ""
			case e.Kind == KindAbandon && a.Err != "":
				a.Err = "abandoned"
			case e.Kind == KindTimeout && a.Err == "undelivered":
				a.Err = "timed out"
			}
		}
		spans = append(spans, s)
	}
	return spans
}

// eventDetail renders what an event adds beyond its kind, node and time.
func eventDetail(e Event) string {
	var buf [96]byte
	b := buf[:0]
	switch e.Kind {
	case KindInject:
		b = e.To.Append(append(b, "→ "...))
		b = e.Obj.Append(append(b, "  "...))
	case KindRetry:
		b = e.To.Append(append(b, "→ "...))
		b = e.Obj.Append(append(b, "  "...))
		b = strconv.AppendInt(append(b, "  retry #"...), e.Arg, 10)
		b = e.Prev.Append(append(b, " of "...))
	case KindForward:
		b = e.To.Append(append(b, "→ "...))
		b = append(append(b, "  ("...), ForwardReasonString(e.Arg)...)
		b = append(strconv.AppendInt(append(b, ", hops="...), int64(e.Hops), 10), ')')
	case KindHit:
		b = e.Loc.Append(append(b, "cached at "...))
	case KindOriginResolve:
		return "resolved at origin"
	case KindBackward:
		b = e.To.Append(append(b, "→ "...))
		b = e.Loc.Append(append(b, "  learned "...))
		b = appendOutcome(append(b, "  "...), e.Arg)
	case KindDeliver:
		b = e.Loc.Append(append(b, "resolver "...))
		b = strconv.AppendInt(append(b, " (hops="...), int64(e.Hops), 10)
		if e.Arg&1 != 0 {
			b = append(b, ", from origin"...)
		}
		b = append(b, ')')
	case KindDrop:
		b = e.To.Append(append(b, "→ "...))
		b = append(append(append(b, "  dropped ("...), DropCauseString(e.Arg)...), ')')
	case KindTimeout:
		return "timed out"
	case KindAbandon:
		b = append(strconv.AppendInt(append(b, "abandoned after "...), e.Arg, 10), " retries"...)
	case KindExpire:
		b = append(strconv.AppendInt(append(b, "pending entry expired (passes="...), e.Arg, 10), ')')
	case KindInvalidate:
		b = e.Obj.Append(append(b, "invalidated "...))
	case KindStaleReply:
		return "stale reply discarded"
	default:
		return ""
	}
	return string(b)
}
