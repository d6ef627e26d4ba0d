package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

// FuzzAppendSpan holds appendSpan to encoding/json: for any span, its
// encoding must be json.Marshal's byte for byte — field order, omitempty,
// and the string escaping of control bytes, '<', '>', '&', U+2028, U+2029
// and invalid UTF-8.
func FuzzAppendSpan(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(0), int32(0), "client", uint64(0), int64(10), int64(20), "", "")
	f.Add(uint64(1<<63), uint64(1<<62|5), uint64(3), int32(-12), "forward", uint64(99), int64(-1), int64(1<<40), "→ Proxy[3]  (learned, hops=2)", "upstream status 502")
	f.Add(uint64(7), uint64(8), uint64(9), int32(3), "a\"b\\c", uint64(1), int64(0), int64(0), "<a href=\"x\">&amp;</a>", "\x00\x01\b\f\n\r\t\x1f\x7f")
	f.Add(uint64(7), uint64(8), uint64(9), int32(3), "\u2028\u2029", uint64(1), int64(0), int64(0), "\xff\xfe\xc3", "é😀\xed\xa0\x80")
	f.Fuzz(func(t *testing.T, trace, id, parent uint64, node int32, stage string, obj uint64, start, end int64, detail, errs string) {
		s := Span{Trace: trace, ID: id, Parent: parent, Node: node, Stage: stage, Obj: obj, Start: start, End: end, Detail: detail, Err: errs}
		want, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendSpan(nil, &s); !bytes.Equal(got, want) {
			t.Fatalf("appendSpan(%+v)\n got %q\nwant %q", s, got, want)
		}
	})
}

// chromeReference is WriteChromeSpans as encoding/json wrote it: every
// event a struct with a map of args, the whole document one value.
func chromeReference(spans []Span) []byte {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var f struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}
	f.DisplayTimeUnit = "ms"
	var base int64
	for i, s := range spans {
		if i == 0 || s.Start < base {
			base = s.Start
		}
	}
	pids := map[uint64]int{}
	named := map[[2]int]bool{}
	for _, s := range spans {
		pid, ok := pids[s.Trace]
		if !ok {
			pid = len(pids) + 1
			pids[s.Trace] = pid
			f.TraceEvents = append(f.TraceEvents, event{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": fmt.Sprintf("trace %016x", s.Trace)}})
		}
		node := ids.NodeID(s.Node)
		tid := chromeTid(node)
		if !named[[2]int{pid, tid}] {
			named[[2]int{pid, tid}] = true
			f.TraceEvents = append(f.TraceEvents, event{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": node.String()}})
		}
		args := map[string]any{"trace": fmt.Sprintf("%016x", s.Trace), "span": s.ID}
		if s.Obj != 0 {
			args["obj"] = s.Obj
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		f.TraceEvents = append(f.TraceEvents, event{Name: s.Stage, Ph: "X", Ts: s.Start - base,
			Dur: max(s.End-s.Start, 1), Pid: pid, Tid: tid, Args: args})
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(f)
	return buf.Bytes()
}

// TestChromeSpansMatchEncodingJSON: the streamed Chrome export writes the
// bytes encoding/json wrote for the whole document, for no spans, for one,
// and for spans of several traces and nodes with every optional arg and
// strings that need escaping.
func TestChromeSpansMatchEncodingJSON(t *testing.T) {
	spans := []Span{
		{Trace: 0xabc, ID: 1, Node: int32(ids.Client(2)), Stage: SpanAttempt, Obj: 5, Start: 100, End: 100},
		{Trace: 0xabc, ID: 2, Parent: 1, Node: 3, Stage: "forward", Obj: 5, Start: 90, End: 140, Detail: "→ Proxy[1] <hop> & \u2028", Err: "dial \"x\"\n\xff"},
		{Trace: 1 << 63, ID: 3, Node: int32(ids.Origin), Stage: "origin", Start: 150, End: 160},
		{Trace: 0xabc, ID: 4, Parent: 2, Node: int32(ids.None), Stage: "x", Start: 95, End: 90},
	}
	for n := 0; n <= len(spans); n++ {
		var got bytes.Buffer
		if err := WriteChromeSpans(&got, spans[:n]); err != nil {
			t.Fatal(err)
		}
		if want := chromeReference(spans[:n]); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%d spans:\n got %s\nwant %s", n, got.Bytes(), want)
		}
	}
}

// eventDetailReference is eventDetail as fmt wrote it.
func eventDetailReference(e Event) string {
	switch e.Kind {
	case KindInject:
		return fmt.Sprintf("→ %v  %v", e.To, e.Obj)
	case KindRetry:
		return fmt.Sprintf("→ %v  %v  retry #%d of %v", e.To, e.Obj, e.Arg, e.Prev)
	case KindForward:
		return fmt.Sprintf("→ %v  (%s, hops=%d)", e.To, ForwardReasonString(e.Arg), e.Hops)
	case KindHit:
		return fmt.Sprintf("cached at %v", e.Loc)
	case KindOriginResolve:
		return "resolved at origin"
	case KindBackward:
		return fmt.Sprintf("→ %v  learned %v  %s", e.To, e.Loc, OutcomeString(e.Arg))
	case KindDeliver:
		origin := ""
		if e.Arg&1 != 0 {
			origin = ", from origin"
		}
		return fmt.Sprintf("resolver %v (hops=%d%s)", e.Loc, e.Hops, origin)
	case KindDrop:
		return fmt.Sprintf("→ %v  dropped (%s)", e.To, DropCauseString(e.Arg))
	case KindTimeout:
		return "timed out"
	case KindAbandon:
		return fmt.Sprintf("abandoned after %d retries", e.Arg)
	case KindExpire:
		return fmt.Sprintf("pending entry expired (passes=%d)", e.Arg)
	case KindInvalidate:
		return fmt.Sprintf("invalidated %v", e.Obj)
	case KindStaleReply:
		return "stale reply discarded"
	}
	return ""
}

// outcomeReference is OutcomeString as string concatenation wrote it.
func outcomeReference(arg int64) string {
	from, to, ce, me, dr := DecodeOutcome(arg)
	s := TableKindString(from) + "→" + TableKindString(to)
	var flags string
	if ce {
		flags += " cache-evict"
	}
	if me {
		flags += " multiple-evict"
	}
	if dr {
		flags += " dropped"
	}
	if flags != "" {
		s += " (" + flags[1:] + ")"
	}
	return s
}

// TestEventDetailMatchesFmt: the appended event details are fmt's, byte
// for byte, for every Kind (and one past the last) over nodes of every
// range, unknown reasons and causes, every outcome flag set and negative
// arguments.
func TestEventDetailMatchesFmt(t *testing.T) {
	nodes := []ids.NodeID{0, 7, ids.None, ids.Origin, ids.Client(0), ids.Client(63), -5, 1<<31 - 1}
	args := []int64{0, 1, 2, 3, 6, 7, 99, -1, -1 << 63, 1<<63 - 1, EncodeOutcome(3, 1, true, true, true), EncodeOutcome(2, 2, false, true, false), 0x7ff}
	n := 0
	for k := Kind(0); k <= numKinds; k++ {
		for i, node := range nodes {
			for _, arg := range args {
				e := Ev(k, node)
				e.To, e.Loc = nodes[(i+1)%len(nodes)], nodes[(i+3)%len(nodes)]
				e.Obj = ids.ObjectID(uint64(arg) * 2654435761)
				e.Prev = ids.NewRequestID(i, uint64(arg))
				e.Hops = int32(arg)
				e.Arg = arg
				if got, want := eventDetail(e), eventDetailReference(e); got != want {
					t.Fatalf("%v event %+v: got %q, want %q", k, e, got, want)
				}
				if got, want := OutcomeString(arg), outcomeReference(arg); got != want {
					t.Fatalf("OutcomeString(%#x) = %q, want %q", arg, got, want)
				}
				n++
			}
		}
	}
	t.Logf("%d events", n)
}
