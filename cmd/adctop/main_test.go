package main

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/httpproxy"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/promtext"
)

// TestScrapeAndRenderAgainstFarm drives a real farm and checks adctop's
// scrape → render path end to end: the snapshot must carry the proxy's own
// identity, counters, gauges and stage histograms, and the rendered frame
// must show every proxy and a server-stage latency row.
func TestScrapeAndRenderAgainstFarm(t *testing.T) {
	f, err := httpproxy.NewFarm(2, httpproxy.Config{
		Tables: core.Config{SingleSize: 128, MultipleSize: 128, CachingSize: 32},
		Seed:   11,
		// Traced and health-probed (without probe ticks), so the page holds
		// every family scrape reads.
		Tracing:        httpproxy.Tracing{SampleEvery: 1},
		FaultTolerance: httpproxy.FaultTolerance{Health: httpproxy.HealthConfig{Enabled: true, ProbeInterval: time.Hour}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	for i := 0; i < 80; i++ {
		if _, err := f.Get(i%2, ids.ObjectID(i%11+1), "top-"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}

	client := &http.Client{Timeout: 5 * time.Second}
	targets := []string{f.Proxies[0].URL(), f.Proxies[1].URL()}

	snaps := scrapeAll(client, targets)
	for i, s := range snaps {
		if s.err != nil {
			t.Fatalf("scrape %d: %v", i, s.err)
		}
		if want := f.Proxies[i].ID().String(); s.proxy != want {
			t.Errorf("snapshot %d identifies as %q, want %q", i, s.proxy, want)
		}
		if want := f.Proxies[i].Stats(); s.stats != want {
			t.Errorf("snapshot %d stats = %+v\nwant the proxy's Stats() %+v", i, s.stats, want)
		}
		// Every reader found its family: a name the page does not carry
		// would read as zero.
		if s.stats.Requests == 0 || s.gauges.UptimeSeconds == 0 || s.gauges.TraceSpans == 0 || len(s.stages[metrics.StageServer]) == 0 {
			t.Errorf("snapshot %d is empty: requests=%v gauges=%+v server stage=%v", i, s.stats.Requests, s.gauges, s.stages[metrics.StageServer])
		}
	}

	var b strings.Builder
	render(&b, snaps, nil, 0) // the -once form: lifetime values
	out := b.String()
	for _, want := range []string{"2/2 up", "Proxy[0]", "Proxy[1]", "server", "lifetime"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered frame missing %q:\n%s", want, out)
		}
	}

	// Second frame with deltas: more traffic, then render against prev.
	for i := 0; i < 40; i++ {
		if _, err := f.Get(i%2, ids.ObjectID(i%11+1), "top2-"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	cur := scrapeAll(client, targets)
	b.Reset()
	render(&b, cur, snaps, time.Second)
	if out := b.String(); !strings.Contains(out, "req/s") {
		t.Errorf("delta frame missing rate unit:\n%s", out)
	}

	// A dead target renders as DOWN without disturbing the live rows.
	dead := append(targets, "http://127.0.0.1:1/")
	snaps = scrapeAll(client, dead)
	b.Reset()
	render(&b, snaps, nil, 0)
	if out := b.String(); !strings.Contains(out, "DOWN") || !strings.Contains(out, "2/3 up") {
		t.Errorf("dead proxy not rendered as DOWN:\n%s", out)
	}
}

// TestRunRefusesNonPositiveInterval: a live dashboard needs a positive
// polling interval (time.NewTicker panics on anything else); -once polls
// once and ignores it.
func TestRunRefusesNonPositiveInterval(t *testing.T) {
	for _, iv := range []string{"0", "-1s"} {
		err := run([]string{"-interval", iv, "http://127.0.0.1:1"})
		if err == nil || !strings.Contains(err.Error(), "-interval") {
			t.Errorf("adctop -interval %s: err = %v, want one naming -interval", iv, err)
		}
	}
	err := run([]string{"-once", "-interval", "0", "http://127.0.0.1:1"})
	if err == nil || strings.Contains(err.Error(), "-interval") {
		t.Errorf("adctop -once -interval 0 against a dead target: err = %v, want the scrape failure", err)
	}
}

func TestCounterDelta(t *testing.T) {
	if got := counterDelta(10, 4); got != 6 {
		t.Errorf("counterDelta(10,4) = %v, want 6", got)
	}
	// Counter reset (proxy restart): report the post-restart value.
	if got := counterDelta(3, 100); got != 3 {
		t.Errorf("counterDelta(3,100) = %v, want 3", got)
	}
}

func TestDeltaBuckets(t *testing.T) {
	prev := []promtext.Bucket{{LE: 0.001, Cum: 2}, {LE: 0.01, Cum: 5}}
	cur := []promtext.Bucket{{LE: 0.001, Cum: 3}, {LE: 0.01, Cum: 9}}
	d := deltaBuckets(cur, prev)
	if d[0].Cum != 1 || d[1].Cum != 4 {
		t.Errorf("deltaBuckets = %+v", d)
	}
	// Reset falls back to the current cumulative shape.
	if d := deltaBuckets(prev, cur); d[0].Cum != 2 || d[1].Cum != 5 {
		t.Errorf("reset fallback = %+v", d)
	}
}
