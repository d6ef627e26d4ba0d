package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/adc-sim/adc/internal/msg"
)

// Sampling rates of the traced runs: spans are recorded for 1 request in
// this many, kept in memory and written out when the run ends.
const (
	simSampleEvery  = 1024
	farmSampleEvery = 8
)

// span is one timed call into a layer. The spans of one request share
// req. In the simulator a span's parent is the previous span of the same
// request (the Handle that sent the message); on the farm it is the span
// of the same request at depth-1 (X-Adc-Forwards of the outbound call,
// 0 for the client's own GET).
type span struct {
	name       string
	node       int
	req        uint64
	depth      int
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog collects sampled spans. A nil log samples nothing.
type spanLog struct {
	every uint64
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanLog(every uint64) *spanLog {
	return &spanLog{every: every, epoch: time.Now()}
}

// sampled reports whether request number n is one of the 1-in-every.
func (l *spanLog) sampled(n uint64) bool { return l != nil && n%l.every == 0 }

// sampledSim extracts the request a simulator message belongs to. The
// low 48 bits of a RequestID are the issuing client's counter; timers
// belong to no request.
func (l *spanLog) sampledSim(m msg.Message) (uint64, bool) {
	if l == nil {
		return 0, false
	}
	var id uint64
	switch t := m.(type) {
	case *msg.Request:
		id = uint64(t.ID)
	case *msg.Reply:
		id = uint64(t.ID)
	default:
		return 0, false
	}
	return id, l.sampled(id & (1<<48 - 1))
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// writeChrome flushes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto): one complete event per span, one row per
// node.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = w.WriteString("[\n")
	for i, s := range l.spans {
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		err := enc.Encode(event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.node,
			Ts:   float64(s.start.Sub(l.epoch).Nanoseconds()) / 1000,
			Dur:  float64(s.dur().Nanoseconds()) / 1000,
			Args: map[string]any{"req": s.req, "depth": s.depth},
		})
		if err != nil {
			f.Close() //nolint:errcheck // already on the error path
			return fmt.Errorf("encode span: %w", err)
		}
	}
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // already on the error path
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	return nil
}
