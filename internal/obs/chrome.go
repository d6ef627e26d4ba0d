package obs

import (
	"bufio"
	"io"
	"strconv"

	"github.com/adc-sim/adc/internal/ids"
)

// chromeTid maps node IDs onto stable, positive thread IDs: origin 1,
// proxies from 100, clients from 1000.
func chromeTid(n ids.NodeID) int {
	switch {
	case n == ids.Origin:
		return 1
	case n.IsClient():
		return 1000 + n.ClientIndex()
	case n.IsProxy():
		return 100 + int(n)
	default:
		return 0
	}
}

// WriteChromeSpans exports spans in Chrome trace_event format (the JSON
// object chrome://tracing and Perfetto load directly): one duration event
// per span, one process per trace and one row per node within it, so a
// request — across proxies, or through a simulated request's attempts and
// hops — renders as one aligned flame chart. Processes are numbered in
// order of first appearance: trace IDs carry their proxy or client in the
// top bits, which any truncation to a pid would drop.
//
// The events are written one at a time, so the export holds one event's
// encoding beside the spans, not the document. The bytes are those
// encoding/json wrote for the document as one value: each event's fields
// in the order name, ph, ts, dur (left out when 0), pid, tid, args, and
// the args in key order.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w) // its write error sticks; Flush returns it
	if len(spans) == 0 {
		bw.WriteString(`{"traceEvents":null,"displayTimeUnit":"ms"}` + "\n")
		return bw.Flush()
	}
	base := spans[0].Start
	for _, s := range spans {
		base = min(base, s.Start)
	}
	pids := map[uint64]int{}
	named := map[[2]int]bool{} // (pid, tid) rows already labelled
	var b []byte
	bw.WriteString(`{"traceEvents":[`)
	for i, s := range spans {
		b = b[:0]
		if i > 0 {
			b = append(b, ',')
		}
		pid, ok := pids[s.Trace]
		if !ok {
			pid = len(pids) + 1
			pids[s.Trace] = pid
			b = appendChromeHead(b, "process_name", "M", 0, 0, pid, 0)
			b = appendHex16(append(b, `"name":"trace `...), s.Trace)
			b = append(b, `"}},`...)
		}
		node := ids.NodeID(s.Node)
		tid := chromeTid(node)
		if !named[[2]int{pid, tid}] {
			named[[2]int{pid, tid}] = true
			b = appendChromeHead(b, "thread_name", "M", 0, 0, pid, tid)
			b = appendJSONString(append(b, `"name":`...), node.String())
			b = append(b, `}},`...)
		}
		b = appendChromeHead(b, s.Stage, "X", s.Start-base, max(s.End-s.Start, 1), pid, tid)
		if s.Detail != "" {
			b = append(appendJSONString(append(b, `"detail":`...), s.Detail), ',')
		}
		if s.Err != "" {
			b = append(appendJSONString(append(b, `"err":`...), s.Err), ',')
		}
		if s.Obj != 0 {
			b = append(strconv.AppendUint(append(b, `"obj":`...), s.Obj, 10), ',')
		}
		b = strconv.AppendUint(append(b, `"span":`...), s.ID, 10)
		b = appendHex16(append(b, `,"trace":"`...), s.Trace)
		b = append(b, `"}}`...)
		bw.Write(b)
	}
	bw.WriteString(`],"displayTimeUnit":"ms"}` + "\n")
	return bw.Flush()
}

// appendChromeHead appends one trace_event's fields up to the opening of
// its args object.
func appendChromeHead(b []byte, name, ph string, ts, dur int64, pid, tid int) []byte {
	b = appendJSONString(append(b, `{"name":`...), name)
	b = append(append(append(b, `,"ph":"`...), ph...), '"')
	b = strconv.AppendInt(append(b, `,"ts":`...), ts, 10)
	if dur != 0 {
		b = strconv.AppendInt(append(b, `,"dur":`...), dur, 10)
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
	return append(b, `,"args":{`...)
}

// appendHex16 appends v as 16 lower-case hex digits, zero-padded.
func appendHex16(b []byte, v uint64) []byte {
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hex[v>>shift&0xF])
	}
	return b
}
