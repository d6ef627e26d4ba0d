package main

import (
	"bufio"
	"flag"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/httpproxy"
)

// smokeConfig is a short, low-rate run sized for CI: enough traffic to
// produce hits but well under a second of wall time per phase.
func smokeConfig() config {
	return config{
		Proxies:    2,
		Single:     256,
		Multiple:   256,
		Caching:    128,
		Seed:       1,
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
// warmed farm, and tear down without leaking goroutines.
func TestRunSmoke(t *testing.T) {
	before := runtime.NumGoroutine()

	rep, err := run(smokeConfig())
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
	// The forwarding bound has adcsim's spelling and the config key's.
	if cfg, _, err := parseFlags(flag.NewFlagSet("adcload", flag.ContinueOnError), []string{"-maxhops", "3"}); err != nil || cfg.MaxHops != 3 {
		t.Errorf("adcload -maxhops 3: MaxHops = %d, err = %v", cfg.MaxHops, err)
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
