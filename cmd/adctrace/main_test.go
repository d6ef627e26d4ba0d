package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/adc-sim/adc"
	"github.com/adc-sim/adc/internal/ids"
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
func tracedRun(t *testing.T) *adc.Tracer {
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
	return tracer
}

// writeDump saves spans as a one-dump file, as adcsim -trace would, and
// returns its path.
func writeDump(t *testing.T, spans []obs.Span) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteSpanDumps(&buf, []obs.SpanDump{{Proxy: "sim", Node: -1, Spans: spans}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.spans.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEventTraceDump: the facade writes a traced run as the spans
// EventSpans makes of its events, and adctrace reads the file: 600 request
// trees, some truncated by retransmission, none orphaned; one request's
// tree by its retry's ID; a Chrome export.
func TestEventTraceDump(t *testing.T) {
	tracer := tracedRun(t)
	events := tracer.Events()
	var buf bytes.Buffer
	if err := adc.WriteTrace(&buf, tracer); err != nil {
		t.Fatal(err)
	}
	var dumps []obs.SpanDump
	if err := json.Unmarshal(buf.Bytes(), &dumps); err != nil {
		t.Fatal(err)
	}
	want := obs.EventSpans(events)
	if len(dumps) != 1 || !reflect.DeepEqual(dumps[0].Spans, want) {
		t.Fatalf("adc.WriteTrace wrote %d dumps; want one holding EventSpans' %d spans", len(dumps), len(want))
	}
	file := filepath.Join(t.TempDir(), "t.spans.json")
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

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

	out, err := runCaptured(t, "-min-complete", "1", file)
	if err != nil || !strings.Contains(out, "trees     600: ") || !strings.Contains(out, " 0 orphaned") ||
		strings.Contains(out, " 0 truncated") || !strings.Contains(out, "\nretry ") {
		t.Errorf("census: err %v, want 600 trees, some truncated, none orphaned, a retry stage row:\n%s", err, out)
	}

	// Asked for by its retry's ID, a retransmitted request prints whole:
	// the timed-out first attempt and the retry under it.
	out, err = runCaptured(t, "-request", fmt.Sprintf("%d:%d", retry.Req.ClientIndex(), retry.Req.Counter()), file)
	if err != nil || strings.Count(out, obs.SpanAttempt) < 2 || !strings.Contains(out, "retry #1") ||
		!strings.Contains(out, "ERR timed out") {
		t.Errorf("-request %v: err %v, output:\n%s", retry.Req, err, out)
	}
	if _, err := runCaptured(t, "-request", "99:1", file); err == nil {
		t.Error("-request for an unknown ID succeeded")
	}

	chromePath := filepath.Join(t.TempDir(), "chrome.json")
	if _, err := runCaptured(t, "-chrome", chromePath, file); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if b, err := os.ReadFile(chromePath); err != nil || json.Unmarshal(b, &chrome) != nil || len(chrome.TraceEvents) == 0 {
		t.Errorf("chrome export: %v, %d events", err, len(chrome.TraceEvents))
	}
}

// TestValidateRejectsOrphanedTree: a dump that lost one request's first
// attempt span fails -min-complete 1, and the worst trees name it as
// orphaned.
func TestValidateRejectsOrphanedTree(t *testing.T) {
	spans := obs.EventSpans(tracedRun(t).Events())
	var lost obs.Span
	for i, s := range spans {
		if s.Stage == obs.SpanAttempt && s.Parent == 0 {
			lost = s
			spans = append(spans[:i:i], spans[i+1:]...)
			break
		}
	}
	out, err := runCaptured(t, "-min-complete", "1", writeDump(t, spans))
	if err == nil || !strings.Contains(out, " 1 orphaned") ||
		!strings.Contains(out, fmt.Sprintf("trace %016x", lost.Trace)) {
		t.Errorf("-min-complete 1 without %v's attempt: err = %v, want it listed as orphaned:\n%s",
			ids.RequestID(lost.ID), err, out)
	}
}

// TestFarmCensusGate: adctrace reads a farm's span dump file, writes its
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
	out, err := runCaptured(t, "-min-complete", "0.99", "-chrome", chromePath, dumpFile(complete...))
	if err != nil || !strings.Contains(out, "1 complete, 0 truncated, 0 orphaned") {
		t.Errorf("a complete dump: err %v, output:\n%s", err, out)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if b, err := os.ReadFile(chromePath); err != nil || json.Unmarshal(b, &chrome) != nil || len(chrome.TraceEvents) < len(complete) {
		t.Errorf("-chrome: %v, %d events; want one per span at least", err, len(chrome.TraceEvents))
	}
	out, err = runCaptured(t, "-min-complete", "0.99", dumpFile(append(complete, orphan)...))
	if err == nil || !strings.Contains(out, "1 orphaned") {
		t.Errorf("a dump with an orphaned tree: err %v, output:\n%s", err, out)
	}

	out, err = runCaptured(t, "-json", dumpFile(append(complete, orphan)...))
	var c census
	if err != nil || json.Unmarshal([]byte(out), &c) != nil || c.Trees != 2 || c.Orphaned != 1 ||
		c.Stages["server"] != 1 || c.Stages["origin"] != 1 || c.Stages["forward"] != 1 {
		t.Errorf("-json: err %v, census %+v; want 2 trees, 1 orphaned, one span per stage:\n%s", err, c, out)
	}
	if _, err := runCaptured(t, "-json", "-request", "1", dumpFile(complete...)); err == nil ||
		!strings.HasPrefix(err.Error(), "-request ") {
		t.Errorf("-json -request: err = %v, want -request refused", err)
	}
}
