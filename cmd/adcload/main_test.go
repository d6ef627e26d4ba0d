package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/httpproxy"
	"github.com/adc-sim/adc/internal/obs"
)

// smokeConfig is a short, low-rate run sized for CI: enough traffic to
// produce hits but well under a second of wall time per phase.
func smokeConfig() config {
	return config{
		Proxies: 2,
		Farm: httpproxy.Config{
			Tables: core.Config{SingleSize: 256, MultipleSize: 256, CachingSize: 128},
			Seed:   1,
		},
		Rate:       500,
		Duration:   time.Second,
		Conns:      8,
		Profile:    "zipf",
		Population: 64,
		Alpha:      0.8,
		Warm:       256,
	}
}

// TestRunSmoke is the farm-smoke gate: a short open-loop run must complete
// every scheduled request without errors, serve a nonzero hit rate from a
// warmed farm, scrape every proxy's span ring into the dump file and the
// text report, and tear down without leaking goroutines.
func TestRunSmoke(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := smokeConfig()
	cfg.Farm.Tracing.SampleEvery = 4
	cfg.TraceDump = filepath.Join(t.TempDir(), "spans.json")
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("run reported %d errors", rep.Errors)
	}
	if rep.Completed != uint64(rep.Scheduled) {
		t.Errorf("completed %d of %d scheduled requests", rep.Completed, rep.Scheduled)
	}
	if rep.Hits == 0 {
		t.Error("warmed farm served zero hits")
	}
	if rep.AchievedRate < rep.OfferedRate*0.5 {
		t.Errorf("achieved %.0f req/s of %.0f offered — farm cannot sustain the smoke rate",
			rep.AchievedRate, rep.OfferedRate)
	}
	if rep.P50us <= 0 || rep.P999us < rep.P50us {
		t.Errorf("implausible latency quantiles: p50=%v p99.9=%v", rep.P50us, rep.P999us)
	}
	if len(rep.Proxies) != 2 {
		t.Fatalf("report covers %d proxies, want 2", len(rep.Proxies))
	}
	var perProxy uint64
	for _, p := range rep.Proxies {
		perProxy += p.Requests
	}
	if perProxy < rep.Completed {
		t.Errorf("proxies saw %d requests, fewer than the %d completed", perProxy, rep.Completed)
	}
	if tr := rep.Trace; tr == nil || tr.Proxies != 2 || tr.Skipped != 0 || tr.Trees == 0 {
		t.Errorf("trace census = %+v, want trees from both proxies", tr)
	}
	var dumps []obs.SpanDump
	if b, err := os.ReadFile(cfg.TraceDump); err != nil || json.Unmarshal(b, &dumps) != nil || len(dumps) != 2 {
		t.Errorf("-trace-dump file: %v, %d dumps; want one per proxy", err, len(dumps))
	}
	var text strings.Builder
	printText(&text, rep)
	for _, want := range []string{"achieved ", "hits ", "latency   p50 ", "trace ", "per proxy (", "  proxy  1 "} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report lacks %q:\n%s", want, text.String())
		}
	}

	// Goroutine-leak check: everything run() started (farm servers,
	// workers, pooled connections) must wind down once it returns. Idle
	// HTTP connections take a beat to notice their server closed, so
	// poll rather than assert immediately.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before run, %d after\n%s",
				before, now, truncateStacks(string(buf[:n])))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestObjectStreamProfiles checks every -profile generates the requested
// stream length within the population, and unknown names fail.
func TestObjectStreamProfiles(t *testing.T) {
	cfg := smokeConfig()
	for _, profile := range []string{"paper", "zipf", "uniform"} {
		cfg.Profile = profile
		objs, err := objectStream(cfg, 1000)
		if err != nil {
			t.Fatalf("%s: %v", profile, err)
		}
		if len(objs) != 1000 {
			t.Errorf("%s: generated %d objects, want 1000", profile, len(objs))
		}
	}
	cfg.Profile = "nope"
	if _, err := objectStream(cfg, 10); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown profile must fail naming the profile, got %v", err)
	}
}

// TestFlagsRefuseModifiersOfFeaturesLeftOff: a flag that tunes health,
// replication or the span ring does nothing while that feature is off, and
// -serve reads no measurement flag, so such a flag is refused by name
// rather than silently dropped.
func TestFlagsRefuseModifiersOfFeaturesLeftOff(t *testing.T) {
	parse := func(args ...string) error {
		_, _, err := parseFlags(flag.NewFlagSet("adcload", flag.ContinueOnError), args)
		return err
	}
	for _, args := range [][]string{
		{"-probe-interval", "50ms"},
		{"-fail-threshold", "2"},
		{"-retries", "5"},
		{"-hedge", "5ms"},
		{"-health=false", "-retries", "5"},
		{"-rep-threshold", "3"},
		{"-rep-max", "2"},
		{"-rep-window", "64"},
		{"-trace-ring", "10"},
		{"-trace-sample", "0", "-trace-ring", "10"},
		{"-serve", "-rate", "100"},
		{"-serve", "-duration", "1s"},
		{"-serve", "-faults", "kill=p1@1s"},
		{"-serve", "-trace-dump", "spans.json"},
		{"-serve", "-json", "-avail-window", "1s"},
	} {
		name := strings.TrimPrefix(args[len(args)-2], "-")
		if err := parse(args...); err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("adcload %v: err = %v, want one naming -%s", args, err, name)
		}
	}
	for _, args := range [][]string{
		{"-health", "-probe-interval", "50ms", "-fail-threshold", "2", "-retries", "5", "-hedge", "5ms"},
		{"-faults", "kill=p1@1s", "-probe-interval", "50ms"},
		{"-replicate", "-rep-threshold", "3", "-rep-max", "2", "-rep-window", "64"},
		{"-trace-sample", "4", "-trace-ring", "10"},
		{"-trace-dump", "spans.json", "-trace-ring", "10"},
		{"-serve", "-proxies", "5", "-warm", "2000", "-trace-sample", "1", "-health", "-retries", "5", "-replicate", "-rep-max", "2"},
	} {
		if err := parse(args...); err != nil {
			t.Errorf("adcload %v: %v", args, err)
		}
	}
	// Every flag that configures a proxy writes the one field of cfg.Farm
	// that NewFarm copies into each proxy, and no other. (The forwarding
	// bound has adcsim's spelling and the config key's: -maxhops.)
	farmOf := func(args ...string) httpproxy.Config {
		t.Helper()
		cfg, _, err := parseFlags(flag.NewFlagSet("adcload", flag.ContinueOnError), args)
		if err != nil {
			t.Fatalf("adcload %v: %v", args, err)
		}
		return cfg.Farm
	}
	defaults := farmOf()
	for _, c := range []struct {
		args []string
		set  func(*httpproxy.Config)
	}{
		{[]string{"-single", "7"}, func(c *httpproxy.Config) { c.Tables.SingleSize = 7 }},
		{[]string{"-multiple", "8"}, func(c *httpproxy.Config) { c.Tables.MultipleSize = 8 }},
		{[]string{"-caching", "9"}, func(c *httpproxy.Config) { c.Tables.CachingSize = 9 }},
		{[]string{"-maxhops", "3"}, func(c *httpproxy.Config) { c.MaxHops = 3 }},
		{[]string{"-seed", "42"}, func(c *httpproxy.Config) { c.Seed = 42 }},
		{[]string{"-max-active", "5"}, func(c *httpproxy.Config) { c.MaxActive = 5 }},
		{[]string{"-max-queue", "-1"}, func(c *httpproxy.Config) { c.MaxQueue = -1 }},
		{[]string{"-nocoalesce"}, func(c *httpproxy.Config) { c.NoCoalesce = true }},
		{[]string{"-replicate"}, func(c *httpproxy.Config) { c.Replication.Enabled = true }},
		{[]string{"-replicate", "-rep-threshold", "3"}, func(c *httpproxy.Config) { c.Replication.Enabled, c.Replication.HotThreshold = true, 3 }},
		{[]string{"-replicate", "-rep-max", "2"}, func(c *httpproxy.Config) { c.Replication.Enabled, c.Replication.MaxReplicas = true, 2 }},
		{[]string{"-replicate", "-rep-window", "64"}, func(c *httpproxy.Config) { c.Replication.Enabled, c.Replication.Window = true, 64 }},
		{[]string{"-health"}, func(c *httpproxy.Config) { c.FaultTolerance.Health.Enabled = true }},
		{[]string{"-health", "-probe-interval", "50ms"}, func(c *httpproxy.Config) {
			c.FaultTolerance.Health.Enabled, c.FaultTolerance.Health.ProbeInterval = true, 50*time.Millisecond
		}},
		{[]string{"-health", "-fail-threshold", "2"}, func(c *httpproxy.Config) {
			c.FaultTolerance.Health.Enabled, c.FaultTolerance.Health.FailureThreshold = true, 2
		}},
		{[]string{"-health", "-retries", "5"}, func(c *httpproxy.Config) { c.FaultTolerance.Health.Enabled, c.FaultTolerance.MaxRetries = true, 5 }},
		{[]string{"-health", "-hedge", "5ms"}, func(c *httpproxy.Config) {
			c.FaultTolerance.Health.Enabled, c.FaultTolerance.HedgeDelay = true, 5*time.Millisecond
		}},
		{[]string{"-trace-sample", "4"}, func(c *httpproxy.Config) { c.Tracing.SampleEvery = 4 }},
		{[]string{"-trace-sample", "4", "-trace-ring", "10"}, func(c *httpproxy.Config) { c.Tracing.SampleEvery, c.Tracing.RingSize = 4, 10 }},
	} {
		want := defaults
		c.set(&want)
		if got := farmOf(c.args...); !reflect.DeepEqual(got, want) {
			t.Errorf("adcload %v: Farm = %+v, want %+v", c.args, got, want)
		}
	}
}

// TestServeAnswersUntilStopped: -serve warms the farm, prints its proxy
// URLs, answers an object GET and /metrics through them, and returns once
// stopped.
func TestServeAnswersUntilStopped(t *testing.T) {
	cfg := smokeConfig()
	r, w := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(cfg, w, stop)
		w.Close() //nolint:errcheck // a pipe writer's Close never fails
	}()
	var url string
	lines := bufio.NewScanner(r)
	for lines.Scan() && !strings.HasPrefix(lines.Text(), "serving") {
		if rest, ok := strings.CutPrefix(lines.Text(), "proxy 0: "); ok {
			url = strings.Fields(rest)[0]
		}
	}
	go io.Copy(io.Discard, r) //nolint:errcheck // drains the rest until serve closes w
	if url == "" {
		t.Fatal("serve printed no proxy 0 URL")
	}
	client := httpproxy.NewClient()
	if _, shed, _, err := issue(client, url, 42, "t1", 0); err != nil || shed {
		t.Errorf("GET object 42: shed %v, err %v", shed, err)
	}
	if err := lintProxyMetrics(client, url); err != nil {
		t.Errorf("/metrics: %v", err)
	}
	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after stop")
	}
}

// truncateStacks keeps leak dumps readable in CI logs.
func truncateStacks(s string) string {
	const max = 8 << 10
	if len(s) <= max {
		return s
	}
	return s[:max] + "\n... (truncated)"
}
