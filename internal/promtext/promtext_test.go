package promtext

import (
	"math"
	"strings"
	"testing"
)

// TestPromtextRoundTrip writes a document with every family type and
// parses it back, checking values and types survive.
func TestPromtextRoundTrip(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Counter("adc_requests_total", "Total requests.")
	w.Sample(42)
	w.Gauge("adc_queue_depth", "Waiters.")
	w.Sample(3, L("proxy", "Proxy[0]"))
	w.Sample(7, L("proxy", "Proxy[1]"))
	w.HistogramFamily("adc_stage_latency_seconds", "Per-stage latency.")
	w.Histogram([]float64{0.001, 0.01}, []uint64{5, 9}, 10, 0.123, L("stage", "forward"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	d, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse: %v\noutput:\n%s", err, b.String())
	}
	if v, ok := d.Value("adc_requests_total"); !ok || v != 42 {
		t.Errorf("counter = %v, %v; want 42, true", v, ok)
	}
	if v, ok := d.Value("adc_queue_depth", L("proxy", "Proxy[1]")); !ok || v != 7 {
		t.Errorf("gauge{Proxy[1]} = %v, %v; want 7, true", v, ok)
	}
	if got := d.Families["adc_stage_latency_seconds"].Type; got != TypeHistogram {
		t.Errorf("histogram family type = %q", got)
	}
	buckets := d.Buckets("adc_stage_latency_seconds", L("stage", "forward"))
	if len(buckets) != 3 {
		t.Fatalf("buckets = %v, want 3 (two bounds + Inf)", buckets)
	}
	if !math.IsInf(buckets[2].LE, 1) || buckets[2].Cum != 10 {
		t.Errorf("+Inf bucket = %+v, want cum 10", buckets[2])
	}
	if err := Lint(strings.NewReader(b.String())); err != nil {
		t.Errorf("lint: %v", err)
	}
}

// TestPromtextLabelEscaping round-trips label values containing every
// escapable character, plus help text with newlines.
func TestPromtextLabelEscaping(t *testing.T) {
	hostile := "a\\b\"c\nd"
	var b strings.Builder
	w := NewWriter(&b)
	w.Gauge("adc_test", "line one\nline \\two")
	w.Sample(1, L("path", hostile))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("raw newline leaked into exposition:\n%q", out)
	}
	d, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse: %v\n%q", err, out)
	}
	if _, ok := d.Value("adc_test", L("path", hostile)); !ok {
		t.Errorf("escaped label did not round-trip; samples: %+v", d.Families["adc_test"].Samples)
	}
	if got := d.Families["adc_test"].Help; got != "line one\nline \\two" {
		t.Errorf("help round-trip = %q", got)
	}
}

// TestPromtextEmptySeries: a declared family with zero samples is valid
// exposition and must parse and lint cleanly.
func TestPromtextEmptySeries(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Counter("adc_never_incremented_total", "Declared but unsampled.")
	w.HistogramFamily("adc_empty_hist", "No series yet.")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if f := d.Families["adc_never_incremented_total"]; f == nil || len(f.Samples) != 0 {
		t.Errorf("empty counter family = %+v", f)
	}
	if err := Lint(strings.NewReader(b.String())); err != nil {
		t.Errorf("lint rejects empty families: %v", err)
	}
}

// TestPromtextSpecialValues covers +Inf/-Inf/NaN sample values.
func TestPromtextSpecialValues(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Gauge("adc_special", "")
	w.Sample(math.Inf(1), L("k", "pinf"))
	w.Sample(math.Inf(-1), L("k", "ninf"))
	w.Sample(math.NaN(), L("k", "nan"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, b.String())
	}
	if v, _ := d.Value("adc_special", L("k", "pinf")); !math.IsInf(v, 1) {
		t.Errorf("pinf = %v", v)
	}
	if v, _ := d.Value("adc_special", L("k", "ninf")); !math.IsInf(v, -1) {
		t.Errorf("ninf = %v", v)
	}
	if v, _ := d.Value("adc_special", L("k", "nan")); !math.IsNaN(v) {
		t.Errorf("nan = %v", v)
	}
}

// TestLintCatchesBrokenHistograms feeds hand-built violations to Lint.
func TestLintCatchesBrokenHistograms(t *testing.T) {
	cases := map[string]string{
		"missing +Inf": `# TYPE h histogram
h_bucket{le="1"} 3
h_sum 1
h_count 3
`,
		"count mismatch": `# TYPE h histogram
h_bucket{le="1"} 3
h_bucket{le="+Inf"} 3
h_sum 1
h_count 4
`,
		"non-monotone": `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`,
		"missing sum": `# TYPE h histogram
h_bucket{le="+Inf"} 1
h_count 1
`,
		"missing count": `# TYPE h histogram
h_bucket{le="+Inf"} 1
h_sum 1
`,
	}
	for name, doc := range cases {
		if err := Lint(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: lint accepted a broken histogram", name)
		}
	}
}

// malformed are documents the strict parser must refuse; FuzzPromtextParse
// starts from them too.
var malformed = []string{
	`m{l="x} 1`,            // unterminated label value
	`m{l="x"`,              // unterminated label block
	`m{l="a\q"} 1`,         // unknown escape
	`m{="x"} 1`,            // empty label name
	`m`,                    // no value
	`m 1e`,                 // bad value
	"# TYPE m frequencies", // unknown type
	`{l="x"} 1`,            // no metric name
}

// TestParseRejectsMalformed checks the strict half of the parser.
func TestParseRejectsMalformed(t *testing.T) {
	for _, doc := range malformed {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("parse accepted %q", doc)
		}
	}
}

// TestParseTolerations: timestamps, free comments, blank lines, and
// histogram children appearing without a declared family (they stay
// standalone untyped families rather than erroring).
func TestParseTolerations(t *testing.T) {
	doc := `
# scraped from proxy 3

up 1 1700000000000
# random comment
orphan_bucket{le="+Inf"} 2
`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if v, ok := d.Value("up"); !ok || v != 1 {
		t.Errorf("up = %v, %v", v, ok)
	}
	if _, ok := d.Families["orphan_bucket"]; !ok {
		t.Errorf("undeclared _bucket sample should form its own family; got %v", d.Order)
	}
}

// TestHistQuantile checks interpolation and the +Inf clamp.
func TestHistQuantile(t *testing.T) {
	buckets := []Bucket{{LE: 10, Cum: 0}, {LE: 20, Cum: 10}, {LE: 40, Cum: 10}, {LE: math.Inf(1), Cum: 20}}
	// Median: 10th of 20 observations, all of (10,20] — lands at its top.
	if got := HistQuantile(buckets, 0.5); got != 20 {
		t.Errorf("p50 = %v, want 20", got)
	}
	// p99 lands in the +Inf bucket: clamp to the highest finite bound.
	if got := HistQuantile(buckets, 0.99); got != 40 {
		t.Errorf("p99 = %v, want 40 (clamped)", got)
	}
	if got := HistQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := HistQuantile([]Bucket{{LE: math.Inf(1), Cum: 0}}, 0.5); got != 0 {
		t.Errorf("zero-count = %v", got)
	}
}
