package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/adc-sim/adc"
	"github.com/adc-sim/adc/internal/obs"
)

// runCaptured calls run with args and returns what it printed on stdout.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = run(args)
	os.Stdout = stdout
	w.Close() //nolint:errcheck // the reader sees EOF either way
	return <-out, err
}

// tracedRun records a small virtual-time run at 5% loss with recovery on,
// so some requests retransmit.
func tracedRun(t *testing.T) []obs.Event {
	t.Helper()
	faults, err := adc.ParseFaultSpec("loss=0.05")
	if err != nil {
		t.Fatal(err)
	}
	recovery, err := adc.ParseRecoverySpec("")
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]uint64, 600)
	for i := range objs {
		objs[i] = uint64(i%97 + 1)
	}
	tracer := adc.NewTracer()
	cfg := adc.Config{
		Proxies: 4, Runtime: adc.RuntimeVirtualTime, Seed: 3,
		Faults: faults, Recovery: recovery, Tracer: tracer,
	}
	if _, err := adc.Run(cfg, adc.NewSliceSource(objs)); err != nil {
		t.Fatal(err)
	}
	return tracer.Events()
}

// writeJSONL saves events as a trace file and returns its path.
func writeJSONL(t *testing.T, events []obs.Event) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(f, events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEventTraceSubcommands(t *testing.T) {
	events := tracedRun(t)
	file := writeJSONL(t, events)
	var retry obs.Event
	for _, e := range events {
		if e.Kind == obs.KindRetry {
			retry = e
			break
		}
	}
	if retry.Req == 0 {
		t.Fatal("no retry at 5% loss; the test exercises nothing")
	}

	out, err := runCaptured(t, "summary", file)
	if err != nil || !strings.Contains(out, "600 trees") || !strings.Contains(out, " 0 orphaned") ||
		strings.Contains(out, " 0 truncated") {
		t.Errorf("summary: err %v, want 600 trees, some truncated, none orphaned:\n%s", err, out)
	}

	// Asked for by its retry's ID, a retransmitted request prints whole:
	// the timed-out first attempt and the retry under it.
	out, err = runCaptured(t, "request", fmt.Sprintf("%d:%d", retry.Req.ClientIndex(), retry.Req.Counter()), file)
	if err != nil || strings.Count(out, obs.SpanAttempt) < 2 || !strings.Contains(out, "retry #1") ||
		!strings.Contains(out, "ERR timed out") {
		t.Errorf("request %v: err %v, output:\n%s", retry.Req, err, out)
	}
	if _, err := runCaptured(t, "request", "99:1", file); err == nil {
		t.Error("request for an unknown ID succeeded")
	}

	out, err = runCaptured(t, "validate", file)
	if err != nil || !strings.Contains(out, "600 request trees, none orphaned") {
		t.Errorf("validate: err %v, output %q", err, out)
	}

	out, err = runCaptured(t, "chrome", file)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Errorf("chrome export: %v, %d events", err, len(chrome.TraceEvents))
	}
}

// TestValidateRejectsOrphanedTree: a trace that passes the schema check but
// lost a request's inject fails validate, naming that request.
func TestValidateRejectsOrphanedTree(t *testing.T) {
	events := tracedRun(t)
	var lost obs.Event
	for i, e := range events {
		if e.Kind == obs.KindInject {
			lost = e
			events = append(events[:i:i], events[i+1:]...)
			break
		}
	}
	_, err := runCaptured(t, "validate", writeJSONL(t, events))
	if err == nil || !strings.Contains(err.Error(), "orphaned") || !strings.Contains(err.Error(), lost.Req.String()) {
		t.Errorf("validate without %v's inject: err = %v, want it named as orphaned", lost.Req, err)
	}
}

// TestFarmCensusGate: adctrace farm reads a span dump file, writes its
// spans as a Chrome trace with -chrome, and -min-complete fails a dump
// holding an orphaned tree.
func TestFarmCensusGate(t *testing.T) {
	complete := []obs.Span{
		{Trace: 1<<48 | 1, ID: 1<<48 | 1, Node: 0, Stage: "server", Start: 0, End: 100},
		{Trace: 1<<48 | 1, ID: 1<<48 | 2, Parent: 1<<48 | 1, Node: 0, Stage: "origin", Start: 10, End: 90},
	}
	orphan := obs.Span{Trace: 2<<48 | 1, ID: 2<<48 | 2, Parent: 2<<48 | 9, Node: 1, Stage: "forward", Start: 200, End: 300}
	dumpFile := func(spans ...obs.Span) string {
		b, err := json.Marshal([]obs.SpanDump{{Proxy: "Proxy[0]", Spans: spans}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "spans.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	chromePath := filepath.Join(t.TempDir(), "chrome.json")
	out, err := runCaptured(t, "farm", "-min-complete", "0.99", "-chrome", chromePath, dumpFile(complete...))
	if err != nil || !strings.Contains(out, "1 complete, 0 truncated, 0 orphaned") {
		t.Errorf("farm on a complete dump: err %v, output:\n%s", err, out)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if b, err := os.ReadFile(chromePath); err != nil || json.Unmarshal(b, &chrome) != nil || len(chrome.TraceEvents) < len(complete) {
		t.Errorf("-chrome: %v, %d events; want one per span at least", err, len(chrome.TraceEvents))
	}
	out, err = runCaptured(t, "farm", "-min-complete", "0.99", dumpFile(append(complete, orphan)...))
	if err == nil || !strings.Contains(out, "1 orphaned") {
		t.Errorf("farm on a dump with an orphaned tree: err %v, output:\n%s", err, out)
	}
}
