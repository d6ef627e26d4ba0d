package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/adc-sim/adc/internal/ids"
)

// chromeEvent is one entry of the Chrome trace_event "traceEvents" array
// (the JSON format chrome://tracing and Perfetto load directly).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

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

// WriteChromeSpans exports spans in Chrome trace_event format: one duration
// event per span, one process per trace and one row per node within it, so
// a request — across proxies, or through a simulated request's attempts and
// hops — renders as one aligned flame chart. Processes are numbered in
// order of first appearance: trace IDs carry their proxy or client in the
// top bits, which any truncation to a pid would drop.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	f := chromeFile{DisplayTimeUnit: "ms"}
	var base int64
	for i, s := range spans {
		if i == 0 || s.Start < base {
			base = s.Start
		}
	}
	pids := map[uint64]int{}
	named := map[[2]int]bool{} // (pid, tid) rows already labelled
	for _, s := range spans {
		pid, ok := pids[s.Trace]
		if !ok {
			pid = len(pids) + 1
			pids[s.Trace] = pid
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": fmt.Sprintf("trace %016x", s.Trace)},
			})
		}
		node := ids.NodeID(s.Node)
		tid := chromeTid(node)
		if !named[[2]int{pid, tid}] {
			named[[2]int{pid, tid}] = true
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": node.String()},
			})
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
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: s.Stage, Ph: "X", Ts: s.Start - base, Dur: max(s.End-s.Start, 1),
			Pid: pid, Tid: tid, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(f)
}
