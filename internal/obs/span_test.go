package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

// TestSpanRingWraparound fills a ring past capacity and checks the snapshot
// is the newest spans oldest-first with an accurate drop count.
func TestSpanRingWraparound(t *testing.T) {
	r := NewSpanRing(4)
	for i := 0; i < 10; i++ {
		r.Add(Span{ID: uint64(i + 1), Start: int64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	got := r.Snapshot()
	for i, s := range got {
		if want := uint64(7 + i); s.ID != want {
			t.Errorf("snapshot[%d].ID = %d, want %d", i, s.ID, want)
		}
	}

	// Under capacity: no drops, insertion order.
	r2 := NewSpanRing(8)
	r2.Add(Span{ID: 1})
	r2.Add(Span{ID: 2})
	if r2.Dropped() != 0 || r2.Len() != 2 {
		t.Errorf("under-capacity ring: dropped=%d len=%d", r2.Dropped(), r2.Len())
	}
	if s := r2.Snapshot(); len(s) != 2 || s[0].ID != 1 || s[1].ID != 2 {
		t.Errorf("snapshot = %+v", s)
	}

	// Nil ring is the disabled state.
	var nilRing *SpanRing
	nilRing.Add(Span{ID: 1})
	if nilRing.Len() != 0 || nilRing.Snapshot() != nil || nilRing.Dropped() != 0 {
		t.Error("nil ring should record nothing")
	}
}

// TestMergeDumpsSkewAlignment injects a known clock skew into one proxy's
// dump and checks alignment recovers the true cross-proxy ordering.
func TestMergeDumpsSkewAlignment(t *testing.T) {
	const skew = 5_000_000 // proxy 1's clock runs 5s ahead
	scrapeAt := int64(1_000_000_000)
	dumps := []SpanDump{
		{
			Node: 0, NowUs: scrapeAt, ScrapedUs: scrapeAt,
			Spans: []Span{{Trace: 1, ID: 1, Node: 0, Stage: "server", Start: 100, End: 400}},
		},
		{
			// Span physically started at 200 but this proxy's stamps are
			// +skew; its NowUs exposes the same offset.
			Node: 1, NowUs: scrapeAt + skew, ScrapedUs: scrapeAt,
			Spans: []Span{{Trace: 1, ID: 2, Parent: 1, Node: 1, Stage: "forward", Start: 200 + skew, End: 300 + skew}},
		},
	}
	merged := MergeDumps(dumps)
	if len(merged) != 2 {
		t.Fatalf("merged %d spans, want 2", len(merged))
	}
	if merged[0].ID != 1 || merged[1].ID != 2 {
		t.Fatalf("alignment lost ordering: %+v", merged)
	}
	if merged[1].Start != 200 || merged[1].End != 300 {
		t.Errorf("skewed span aligned to [%d,%d], want [200,300]", merged[1].Start, merged[1].End)
	}
	// No ScrapedUs → pass-through.
	raw := MergeDumps([]SpanDump{{Node: 2, NowUs: 99, Spans: []Span{{Trace: 2, ID: 3, Start: 7, End: 9}}}})
	if raw[0].Start != 7 {
		t.Errorf("unscraped dump was shifted: %+v", raw[0])
	}
}

// TestBuildSpanTrees covers the three classifications: complete, truncated
// (error present, structure intact), and orphaned (missing parent/root).
func TestBuildSpanTrees(t *testing.T) {
	spans := []Span{
		// Trace 1: complete two-proxy tree.
		{Trace: 1, ID: 1, Node: 0, Stage: "server", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Node: 0, Stage: "forward", Start: 10, End: 90, Detail: "Proxy[1]"},
		{Trace: 1, ID: 3, Parent: 2, Node: 1, Stage: "server", Start: 20, End: 80},
		{Trace: 1, ID: 4, Parent: 3, Node: 1, Stage: "origin", Start: 30, End: 70},
		// Trace 2: truncated — the forward into a killed peer errored.
		{Trace: 2, ID: 5, Node: 0, Stage: "server", Start: 200, End: 300},
		{Trace: 2, ID: 6, Parent: 5, Node: 0, Stage: "forward", Start: 210, End: 290, Err: "connection refused"},
		// Trace 3: orphaned — parent 99 never surfaced.
		{Trace: 3, ID: 7, Node: 2, Stage: "server", Start: 400, End: 500},
		{Trace: 3, ID: 8, Parent: 99, Node: 3, Stage: "origin", Start: 410, End: 490},
	}
	trees := BuildSpanTrees(spans)
	if len(trees) != 3 {
		t.Fatalf("built %d trees, want 3", len(trees))
	}
	states := []TreeState{TreeComplete, TreeTruncated, TreeOrphaned}
	for i, want := range states {
		if got := trees[i].State(); got != want {
			t.Errorf("tree %d state = %v, want %v", i, got, want)
		}
	}
	// Structure of the complete tree: server → forward → server → origin.
	root := trees[0].Root
	if root == nil || root.ID != 1 || len(root.Children) != 1 {
		t.Fatalf("trace 1 root = %+v", root)
	}
	if fwd := root.Children[0]; fwd.ID != 2 || len(fwd.Children) != 1 || fwd.Children[0].ID != 3 {
		t.Errorf("trace 1 forward chain broken: %+v", root.Children[0])
	}

	c := CensusSpanTrees(trees)
	if c.Trees != 3 || c.Complete != 1 || c.Truncated != 1 || c.Orphaned != 1 || c.Spans != 8 {
		t.Errorf("census = %+v", c)
	}
	if got, want := c.CompleteFraction(), 2.0/3.0; got != want {
		t.Errorf("CompleteFraction = %v, want %v", got, want)
	}

	var buf bytes.Buffer
	FormatSpanTree(&buf, trees[0])
	out := buf.String()
	if !strings.Contains(out, "complete") || !strings.Contains(out, "origin") {
		t.Errorf("FormatSpanTree output:\n%s", out)
	}
}

// TestBuildSpanTreesDoubleRoot: two Parent==0 spans in one trace keep the
// earliest as root and flag the other as an orphan.
func TestBuildSpanTreesDoubleRoot(t *testing.T) {
	trees := BuildSpanTrees([]Span{
		{Trace: 9, ID: 2, Node: 1, Stage: "server", Start: 50, End: 60},
		{Trace: 9, ID: 1, Node: 0, Stage: "server", Start: 0, End: 100},
	})
	if len(trees) != 1 {
		t.Fatalf("trees = %d", len(trees))
	}
	tr := trees[0]
	if tr.Root == nil || tr.Root.ID != 1 {
		t.Fatalf("root = %+v, want ID 1 (earliest)", tr.Root)
	}
	if len(tr.Orphans) != 1 || tr.Orphans[0].ID != 2 || tr.State() != TreeOrphaned {
		t.Errorf("double root not flagged: orphans=%+v state=%v", tr.Orphans, tr.State())
	}
}

// TestBuildSpanTreesDuplicateSpans: a dump merged twice (adctrace URL
// URL, a re-scraped ring) rebuilds the same trees as the dump once — each
// span ID is linked and counted at its first occurrence only.
func TestBuildSpanTreesDuplicateSpans(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 1, Node: 0, Stage: "server", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Node: 0, Stage: "origin", Start: 10, End: 90},
	}
	once := CensusSpanTrees(BuildSpanTrees(spans))
	if want := (SpanCensus{Trees: 1, Complete: 1, Spans: 2}); once != want {
		t.Fatalf("census = %+v, want %+v", once, want)
	}
	trees := BuildSpanTrees(append(append([]Span{}, spans...), spans...))
	if twice := CensusSpanTrees(trees); twice != once {
		t.Errorf("census of the dump merged twice = %+v, want %+v", twice, once)
	}
	if root := trees[0].Root; len(root.Children) != 1 {
		t.Errorf("root linked %d children, want 1", len(root.Children))
	}
}

// TestWriteChromeSpans checks the export is valid JSON with one duration
// event per span, one process per trace and one named row per node. The
// two traces share their low bits, as trace n minted at two entry proxies
// does, and must still be two processes.
func TestWriteChromeSpans(t *testing.T) {
	const traceA, traceB = 1<<48 | 5, 2<<48 | 5
	spans := []Span{
		{Trace: traceA, ID: 1, Node: 0, Stage: "server", Start: 1000, End: 1100},
		{Trace: traceA, ID: 2, Parent: 1, Node: 1, Stage: "forward", Start: 1010, End: 1090},
		{Trace: traceB, ID: 3, Node: int32(ids.Client(2)), Stage: SpanAttempt, Start: 2000, End: 2050, Err: "boom"},
	}
	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var durs int
	pidOf := map[string]int{} // process name → pid
	rows := map[string]bool{} // thread names
	for _, e := range f.TraceEvents {
		switch {
		case e.Ph == "X":
			durs++
		case e.Name == "process_name":
			pidOf[e.Args["name"].(string)] = e.Pid
		case e.Name == "thread_name":
			rows[e.Args["name"].(string)] = true
		}
	}
	if durs != 3 {
		t.Errorf("%d duration events, want 3:\n%s", durs, buf.String())
	}
	a, b := pidOf[fmt.Sprintf("trace %016x", traceA)], pidOf[fmt.Sprintf("trace %016x", traceB)]
	if len(pidOf) != 2 || a == b {
		t.Errorf("processes %v: want traces %x and %x in two processes", pidOf, traceA, traceB)
	}
	for _, name := range []string{"Proxy[0]", "Proxy[1]", "Client[2]"} {
		if !rows[name] {
			t.Errorf("no row named %s; rows %v", name, rows)
		}
	}
}

// TestSpanDumpRoundTrip: the /debug/trace JSON schema survives a marshal
// cycle with field names intact (adctrace depends on them).
func TestSpanDumpRoundTrip(t *testing.T) {
	d := SpanDump{
		Proxy: "Proxy[3]", Node: 3, NowUs: 123456, Dropped: 7,
		Spans: []Span{{Trace: 1, ID: 2, Parent: 3, Node: 3, Stage: "server", Obj: 42, Start: 10, End: 20, Detail: "d", Err: "e"}},
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"proxy"`, `"now_us"`, `"dropped"`, `"trace"`, `"start_us"`, `"end_us"`} {
		if !strings.Contains(string(b), field) {
			t.Errorf("dump JSON missing %s: %s", field, b)
		}
	}
	var back SpanDump
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", d) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, d)
	}
}

// TestWriteSpanDumpsRoundTrip: the streamed file decodes as the dumps it
// was given, header fields and spans alike, with an empty dump and an
// empty list of dumps among them.
func TestWriteSpanDumpsRoundTrip(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 2, Parent: 3, Node: 3, Stage: "server", Obj: 42, Start: 10, End: 20, Detail: "→ <a&b>", Err: "e"},
		{Trace: 1, ID: 3, Node: -10, Stage: SpanAttempt, Start: 5, End: 30},
	}
	for _, dumps := range [][]SpanDump{
		{},
		{{Proxy: "sim", Node: -1, Spans: spans}},
		{{Proxy: "Proxy[0]", NowUs: 99, ScrapedUs: 101, Dropped: 4, Spans: spans[:1]}, {Proxy: "Proxy[1]", Node: 1, Spans: []Span{}}},
	} {
		var buf bytes.Buffer
		if err := WriteSpanDumps(&buf, dumps); err != nil {
			t.Fatal(err)
		}
		var back []SpanDump
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("%d dumps: %v\n%s", len(dumps), err, buf.Bytes())
		}
		if fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", dumps) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, dumps)
		}
	}
}

// TestReadSpanDumps: the streaming reader decodes what WriteSpanDumps
// writes exactly as encoding/json decodes it whole — dumps of no span, of
// one, and of more spans than one chunk holds — and one bare dump with its
// members in any order; it refuses what is not a dump list.
func TestReadSpanDumps(t *testing.T) {
	many := make([]Span, spanChunk+3)
	for i := range many {
		many[i] = Span{Trace: uint64(i / 7), ID: uint64(i + 1), Stage: "forward", Start: int64(i), Detail: fmt.Sprintf("hops=%d", i%5)}
	}
	for _, dumps := range [][]SpanDump{
		{},
		{{Proxy: "sim", Node: -1, Spans: many}},
		{{Proxy: "Proxy[0]", NowUs: 99, ScrapedUs: 101, Dropped: 4, Spans: many[:2]}, {Proxy: "Proxy[1]", Node: 1, Spans: []Span{}}},
	} {
		var buf bytes.Buffer
		if err := WriteSpanDumps(&buf, dumps); err != nil {
			t.Fatal(err)
		}
		var want []SpanDump
		if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSpanDumps(&buf)
		if err != nil {
			t.Fatalf("%d dumps: %v", len(dumps), err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Errorf("%d dumps read as\n%+v\nwant\n%+v", len(dumps), got, want)
		}
	}

	bare := `{"spans":[{"trace":1,"id":2,"stage":"server","start_us":5}],"proxy":"Proxy[2]","extra":{"a":[1]},"node":2,"dropped":3}`
	got, err := ReadSpanDumps(strings.NewReader(bare))
	want := []SpanDump{{Proxy: "Proxy[2]", Node: 2, Dropped: 3, Spans: []Span{{Trace: 1, ID: 2, Stage: "server", Start: 5}}}}
	if err != nil || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("bare dump read as %+v, %v; want %+v", got, err, want)
	}

	for _, bad := range []string{``, `3`, `[1]`, `[{"spans":{}}]`, `[{"spans":[{"trace":"x"}]}]`, `[{"node":"x","spans":[]}]`, `[{"spans":[]}`, `{"proxy":"p"`} {
		if dumps, err := ReadSpanDumps(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadSpanDumps(%q) = %+v, want an error", bad, dumps)
		}
	}
}
