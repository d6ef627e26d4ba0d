// Command adcload is an open-loop load generator for the HTTP proxy farm.
//
// Closed-loop drivers (like Farm.RunWorkload) issue the next request only
// after the previous one completes, so a slow server quietly throttles the
// offered load and the measured latencies look better than they are — the
// coordinated-omission trap. adcload instead schedules request i at
// start + i/rate regardless of how the server is doing, and measures each
// latency from that *scheduled* arrival time, so queueing delay caused by
// the server falling behind is charged to the server (wrk2-style
// correction). The achieved-vs-offered gap in the report is the direct
// saturation signal.
//
// The farm runs in-process on loopback ports: the numbers include the full
// real-network path (HTTP parse, connection pool, ADC forwarding between
// proxies, origin fetches) without cross-machine noise.
//
// With -serve it measures nothing: it builds and warms the same farm, prints
// the proxy URLs, and serves until interrupted, so curl, adctop and
// adctrace can be pointed at it. Every proxy serves /debug/vars,
// /debug/tables, /metrics, /debug/pprof/ and, with -trace-sample N, the
// /debug/trace span ring.
//
// Typical runs:
//
//	adcload -proxies 8 -rate 5000 -duration 10s               # paper-shaped stream
//	adcload -profile zipf -alpha 0.8 -population 4096 ...     # plain Zipf
//	adcload -rate 50000 -max-active 256 -max-queue 512        # force shedding
//	adcload -trace-dump run.spans.json -lint-metrics          # telemetry smoke
//	adcload -json > run.json                                  # machine-readable
//	adcload -serve -proxies 5 -trace-sample 1                 # serve until Ctrl-C
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/adc-sim/adc/internal/clilog"
	"github.com/adc-sim/adc/internal/httpproxy"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/promtext"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/stats"
	"github.com/adc-sim/adc/internal/workload"
)

// latency histogram shape: 1 ms buckets of 100 µs resolution would be too
// coarse at the bottom and too short at the top, so buckets are 50 µs wide
// with 4000 regular buckets (0–200 ms) plus overflow.
const (
	histWidthUs = 50
	histBuckets = 4000
)

// config collects every knob of one load run.
type config struct {
	Proxies int
	// Farm is every proxy's configuration: the table, -maxhops, -seed,
	// admission, replication, health and tracing flags write it, and
	// NewFarm sets each proxy's ID and origin.
	Farm httpproxy.Config

	Rate     float64       // offered arrival rate, req/s
	Duration time.Duration // measurement window
	Conns    int           // concurrent worker connections

	Profile    string // paper | zipf | uniform
	Population int
	Alpha      float64
	Warm       int // requests issued closed-loop before measuring

	Faults      string        // fault schedule spec ("" = none); implies health
	AvailWindow time.Duration // availability window (chaos/health runs)

	RetryAfterMax time.Duration // cap on honored Retry-After backoff (0 = don't back off)

	TraceDump   string // write every proxy's span dump as JSON here after the run
	LintMetrics bool   // scrape and lint every proxy's /metrics after the run

	JSONOut bool
	Quiet   bool
}

// proxyReport is the per-proxy slice of the report: one proxy's counters
// under farm_totals' key names.
type proxyReport struct {
	ID int `json:"id"`
	metrics.ProxyStats
}

// report is the outcome of one run, also the -json schema.
type report struct {
	OfferedRate  float64       `json:"offered_rate"`
	AchievedRate float64       `json:"achieved_rate"`
	Duration     time.Duration `json:"-"`
	DurationSec  float64       `json:"duration_sec"`

	Scheduled int    `json:"scheduled"`
	Completed uint64 `json:"completed"`
	Hits      uint64 `json:"hits"` // served by some proxy cache
	Shed      uint64 `json:"shed"` // 429 from admission control
	Errors    uint64 `json:"errors"`
	// ShedRetries counts honored Retry-After backoffs: 429 responses the
	// worker slept through and retried instead of recording a shed.
	ShedRetries uint64 `json:"shed_retries,omitempty"`

	// Latencies are in microseconds, measured from the scheduled arrival
	// time (coordinated-omission corrected), shed replies included —
	// a fast 429 is still a completed exchange the client observed.
	P50us  float64 `json:"p50_us"`
	P90us  float64 `json:"p90_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`

	Farm    metrics.ProxyStats `json:"farm_totals"`
	Proxies []proxyReport      `json:"proxies"`

	// Chaos is present when -faults drove a fault schedule: the applied
	// events, per-kill detect/recover times, and windowed availability.
	Chaos *chaosReport `json:"chaos,omitempty"`

	// Trace is present when -trace-sample (or -trace-dump) enabled span
	// tracing: the cross-proxy tree census over the run's sampled requests.
	Trace *traceReport `json:"trace,omitempty"`

	// MetricsLinted is the number of proxies whose /metrics exposition the
	// -lint-metrics pass scraped and verified (0 when the pass was off).
	MetricsLinted int `json:"metrics_linted,omitempty"`

	hist *stats.Histogram
}

// traceReport summarises the run's distributed traces: every proxy's span
// ring scraped over HTTP (the same surface adctrace uses), merged and
// reconstructed into per-request trees.
type traceReport struct {
	Proxies int `json:"proxies"`
	// Skipped counts proxies whose scrape failed (e.g. killed by -faults and
	// never restarted); their spans are missing, which can orphan trees.
	Skipped          int     `json:"skipped,omitempty"`
	Spans            int     `json:"spans"`
	Dropped          uint64  `json:"dropped"`
	Trees            int     `json:"trees"`
	Complete         int     `json:"complete"`
	Truncated        int     `json:"truncated"`
	Orphaned         int     `json:"orphaned"`
	CompleteFraction float64 `json:"complete_fraction"`
}

// HitRate is hits over completed non-shed requests.
func (r *report) HitRate() float64 {
	served := r.Completed - r.Shed
	if served == 0 {
		return 0
	}
	return float64(r.Hits) / float64(served)
}

// objectStream pre-generates the request stream for the measurement window
// plus warm-up, so the hot loop never touches a generator lock.
func objectStream(cfg config, n int) ([]ids.ObjectID, error) {
	rng := rand.New(rand.NewSource(cfg.Farm.Seed))
	switch cfg.Profile {
	case "paper":
		tr, err := workload.Materialize(workload.Config{
			TotalRequests:  n,
			PopulationSize: cfg.Population,
			Alpha:          cfg.Alpha,
			Seed:           cfg.Farm.Seed,
		})
		if err != nil {
			return nil, err
		}
		return tr.Objects(), nil
	case "zipf":
		z, err := workload.NewZipf(cfg.Population, cfg.Alpha)
		if err != nil {
			return nil, err
		}
		objs := make([]ids.ObjectID, n)
		for i := range objs {
			objs[i] = ids.ObjectID(z.Rank(rng) + 1)
		}
		return objs, nil
	case "uniform":
		objs := make([]ids.ObjectID, n)
		for i := range objs {
			objs[i] = ids.ObjectID(rng.Intn(cfg.Population) + 1)
		}
		return objs, nil
	default:
		return nil, fmt.Errorf("adcload: unknown -profile %q (want paper, zipf or uniform)", cfg.Profile)
	}
}

// run executes one complete load run: build farm, warm, drive open-loop,
// aggregate. Split from main so the smoke test can call it in-process and
// check for goroutine leaks afterwards.
func run(cfg config) (*report, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("adcload: -rate must be positive, got %v", cfg.Rate)
	}
	if cfg.Conns <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("adcload: -conns and -duration must be positive")
	}
	total := int(cfg.Rate * cfg.Duration.Seconds())
	if total < 1 {
		total = 1
	}
	objs, err := objectStream(cfg, total+cfg.Warm)
	if err != nil {
		return nil, err
	}

	// A chaos schedule implies the fault-tolerance layer: testing kill and
	// restart without health probing would only measure hard errors.
	var plan *sim.FaultPlan
	if cfg.Faults != "" {
		plan, err = sim.ParseFaultSpec(cfg.Faults)
		if err != nil {
			return nil, err
		}
		if err := httpproxy.CheckChaos(plan, cfg.Proxies); err != nil {
			return nil, err
		}
		cfg.Farm.FaultTolerance.Health.Enabled = true
	}

	// Writing a span dump only makes sense with tracing on; asking for the
	// dump without choosing a sample rate means "trace everything".
	if cfg.TraceDump != "" && cfg.Farm.Tracing.SampleEvery <= 0 {
		cfg.Farm.Tracing.SampleEvery = 1
	}

	f, err := httpproxy.NewFarm(cfg.Proxies, cfg.Farm)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // best-effort teardown

	client := httpproxy.NewClient()
	urlFor := func(i int64) string { return f.Proxies[int(i)%cfg.Proxies].URL() }
	if _, err := warm(client, f, cfg, objs[:cfg.Warm]); err != nil {
		return nil, err
	}
	objs = objs[cfg.Warm:]
	interval := time.Duration(float64(time.Second) / cfg.Rate)

	var (
		next        atomic.Int64 // next request index to claim
		completed   atomic.Uint64
		hits        atomic.Uint64
		shed        atomic.Uint64
		errs        atomic.Uint64
		shedRetries atomic.Uint64
		wg          sync.WaitGroup
	)
	// Availability accounting only exists for chaos/health runs — a plain
	// throughput run should not pay even the window arithmetic.
	var avail *availCounters
	if cfg.Farm.FaultTolerance.Health.Enabled {
		window := cfg.AvailWindow
		if window <= 0 {
			window = 500 * time.Millisecond
		}
		avail = newAvail(window, cfg.Duration)
	}
	hists := make([]*stats.Histogram, cfg.Conns)
	start := time.Now()

	// The fault schedule plays against the same clock the workers use, in
	// its own goroutine; stopping early (all requests drained) cancels the
	// remaining events.
	var (
		applied   []httpproxy.AppliedChaos
		chaosStop chan struct{}
		chaosDone chan struct{}
	)
	if plan != nil {
		chaosStop = make(chan struct{})
		chaosDone = make(chan struct{})
		go func() {
			defer close(chaosDone)
			applied = f.PlayChaos(plan, start, chaosStop)
		}()
	}

	wg.Add(cfg.Conns)
	for w := 0; w < cfg.Conns; w++ {
		go func(w int) {
			defer wg.Done()
			h := stats.NewHistogram(histBuckets, histWidthUs)
			hists[w] = h
			prefix := "l" + strconv.Itoa(w) + "-"
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				// Open-loop: request i belongs at start + i·interval.
				// Sleep only when ahead of schedule; when behind, fire
				// immediately and let the latency measurement (taken
				// from sched, not from send) absorb the backlog.
				sched := start.Add(time.Duration(i) * interval)
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				hit, wasShed, retried, err := issue(client, urlFor(i), objs[i], prefix+strconv.FormatInt(i, 10), cfg.RetryAfterMax)
				lat := time.Since(sched)
				shedRetries.Add(uint64(retried))
				avail.record(time.Since(start), err == nil)
				if err != nil {
					errs.Add(1)
					continue
				}
				completed.Add(1)
				h.Add(int(lat.Microseconds()))
				switch {
				case wasShed:
					shed.Add(1)
				case hit:
					hits.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if plan != nil {
		close(chaosStop)
		<-chaosDone
	}

	merged := stats.NewHistogram(histBuckets, histWidthUs)
	for _, h := range hists {
		merged.Merge(h)
	}
	rep := &report{
		OfferedRate:  cfg.Rate,
		AchievedRate: float64(completed.Load()) / elapsed.Seconds(),
		Duration:     elapsed,
		DurationSec:  elapsed.Seconds(),
		Scheduled:    total,
		Completed:    completed.Load(),
		Hits:         hits.Load(),
		Shed:         shed.Load(),
		Errors:       errs.Load(),
		ShedRetries:  shedRetries.Load(),
		P50us:        merged.Quantile(0.50),
		P90us:        merged.Quantile(0.90),
		P99us:        merged.Quantile(0.99),
		P999us:       merged.Quantile(0.999),
		Farm:         f.TotalStats(),
		hist:         merged,
	}
	for _, p := range f.Proxies {
		rep.Proxies = append(rep.Proxies, proxyReport{int(p.ID()), p.Stats()})
	}
	if plan != nil {
		rep.Chaos = buildChaosReport(cfg.Faults, f, applied, start, avail)
	}

	// Telemetry epilogue, while the farm is still up: scrape the span rings
	// and lint every proxy's /metrics over the same HTTP surface an external
	// scraper would use.
	if cfg.Farm.Tracing.SampleEvery > 0 {
		// A handler's server span lands a hair after the client reads the
		// body; let the last handlers (and hedge losers) finish writing.
		time.Sleep(100 * time.Millisecond)
		rep.Trace, err = scrapeTrace(client, f, cfg.TraceDump)
		if err != nil {
			return nil, err
		}
	}
	if cfg.LintMetrics {
		for _, p := range f.Proxies {
			if err := lintProxyMetrics(client, p.URL()); err != nil {
				return nil, fmt.Errorf("adcload: %v: %w", p.ID(), err)
			}
		}
		rep.MetricsLinted = len(f.Proxies)
	}
	return rep, nil
}

// warm issues objs closed-loop over cfg.Conns workers, converging the
// mapping tables before the clock matters, like the paper's fill phase
// before the request phases, and returns how many were cache hits. Sheds
// are ignored: a tight gate (-max-active) must not abort the run before
// measurement starts.
func warm(client *http.Client, f *httpproxy.Farm, cfg config, objs []ids.ObjectID) (hits uint64, err error) {
	var (
		widx  atomic.Int64
		whits atomic.Uint64
		werr  atomic.Value
		wwg   sync.WaitGroup
	)
	wwg.Add(cfg.Conns)
	for w := 0; w < cfg.Conns; w++ {
		go func(w int) {
			defer wwg.Done()
			prefix := "w" + strconv.Itoa(w) + "-"
			for {
				i := widx.Add(1) - 1
				if i >= int64(len(objs)) || werr.Load() != nil {
					return
				}
				hit, _, _, err := issue(client, f.Proxies[int(i)%cfg.Proxies].URL(), objs[i], prefix+strconv.FormatInt(i, 10), cfg.RetryAfterMax)
				if err != nil {
					werr.Store(err)
					return
				}
				if hit {
					whits.Add(1)
				}
			}
		}(w)
	}
	wwg.Wait()
	if err := werr.Load(); err != nil {
		return 0, fmt.Errorf("adcload: warm-up: %w", err.(error))
	}
	return whits.Load(), nil
}

// serve builds and warms the farm, prints where to reach it, and serves
// until stop delivers — the paper's future-work "real proxy system" (§VI)
// as a daemon any HTTP client can fetch objects through.
func serve(cfg config, w io.Writer, stop <-chan os.Signal) error {
	f, err := httpproxy.NewFarm(cfg.Proxies, cfg.Farm)
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck // best-effort teardown
	if cfg.Warm > 0 {
		objs, err := objectStream(cfg, cfg.Warm)
		if err != nil {
			return err
		}
		hits, err := warm(httpproxy.NewClient(), f, cfg, objs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "warmed with %d requests (hit rate %.3f, %d clients)\n",
			cfg.Warm, float64(hits)/float64(cfg.Warm), cfg.Conns)
	}
	fmt.Fprintf(w, "origin: %s\n", f.Origin.URL())
	urls := make([]string, len(f.Proxies))
	for i, p := range f.Proxies {
		urls[i] = p.URL()
		fmt.Fprintf(w, "proxy %d: %s  (introspection: %[2]s/debug/vars, %[2]s/debug/tables, %[2]s/metrics, %[2]s/debug/pprof/)\n", i, urls[i])
	}
	fmt.Fprintf(w, "\nfetch objects with:\n  curl -H '%s: r1' %s\n", httpproxy.HeaderRequestID, httpproxy.ObjectURL(urls[0], 42))
	fmt.Fprintf(w, "\nwatch the farm live with:\n  go run ./cmd/adctop %s\n", strings.Join(urls, " "))
	if cfg.Farm.Tracing.SampleEvery > 0 {
		fmt.Fprintf(w, "\nrebuild the traced requests' trees with:\n  go run ./cmd/adctrace %s\n", strings.Join(urls, " "))
	}
	fmt.Fprintln(w, "\nserving; Ctrl-C to stop")
	<-stop
	fmt.Fprintln(w, "\nshutting down")
	return nil
}

// scrapeTrace collects every proxy's span dump over HTTP, optionally writes
// the raw dumps (the file adctrace reads), and builds the tree
// census. Unreachable proxies are skipped, not fatal: after a -faults run a
// victim may legitimately be down, and the census accounts for the hole.
func scrapeTrace(client *http.Client, f *httpproxy.Farm, dumpPath string) (*traceReport, error) {
	tr := &traceReport{Proxies: len(f.Proxies)}
	dumps := make([]obs.SpanDump, 0, len(f.Proxies))
	for _, p := range f.Proxies {
		d, err := httpproxy.ScrapeTraceDump(client, p.URL())
		if err != nil {
			tr.Skipped++
			continue
		}
		dumps = append(dumps, d)
		tr.Dropped += d.Dropped
	}
	if dumpPath != "" {
		if err := writeDumpFile(dumpPath, dumps); err != nil {
			return nil, fmt.Errorf("adcload: write trace dump: %w", err)
		}
	}
	c := obs.CensusSpanTrees(obs.BuildSpanTrees(obs.MergeDumps(dumps)))
	tr.Spans = c.Spans
	tr.Trees = c.Trees
	tr.Complete = c.Complete
	tr.Truncated = c.Truncated
	tr.Orphaned = c.Orphaned
	tr.CompleteFraction = c.CompleteFraction()
	return tr, nil
}

// writeDumpFile writes span dumps to path in the file format adctrace reads.
func writeDumpFile(path string, dumps []obs.SpanDump) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteSpanDumps(f, dumps); err != nil {
		f.Close() //nolint:errcheck,gosec // write error takes precedence
		return err
	}
	return f.Close()
}

// lintProxyMetrics scrapes one proxy's /metrics and runs the strict
// exposition lint — the in-run half of the telemetry-smoke CI job.
func lintProxyMetrics(client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	return promtext.Lint(resp.Body)
}

// shedRetryMax bounds how many 429s one request will sleep through before
// recording the shed.
const shedRetryMax = 2

// issue performs one GET and classifies the outcome. A 429 is a shed, not
// an error: admission control answering fast is the behaviour under test.
// When retryAfterMax is positive the worker honors the 429's Retry-After —
// it backs off (capped at retryAfterMax) and retries the same request up
// to shedRetryMax times, which is what the header asks of a well-behaved
// client; retried counts those backoffs.
func issue(client *http.Client, base string, obj ids.ObjectID, reqID string, retryAfterMax time.Duration) (hit, wasShed bool, retried int, err error) {
	for {
		req, err := http.NewRequest(http.MethodGet, httpproxy.ObjectURL(base, obj), nil)
		if err != nil {
			return false, false, retried, err
		}
		req.Header.Set(httpproxy.HeaderRequestID, reqID)
		resp, err := client.Do(req)
		if err != nil {
			return false, false, retried, err
		}
		// Drain so the pooled connection is reusable.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close() //nolint:errcheck // read side
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			if retryAfterMax <= 0 || retried >= shedRetryMax {
				return false, true, retried, nil
			}
			retried++
			time.Sleep(retryAfterDelay(resp.Header, retryAfterMax))
			continue
		case resp.StatusCode != http.StatusOK:
			return false, false, retried, fmt.Errorf("adcload: %s: status %d", reqID, resp.StatusCode)
		}
		return resp.Header.Get(httpproxy.HeaderOrigin) != "1", false, retried, nil
	}
}

// retryAfterDelay reads a 429's Retry-After seconds, capped at max (which
// also covers a missing or malformed header).
func retryAfterDelay(h http.Header, max time.Duration) time.Duration {
	if s := h.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			if d := time.Duration(secs) * time.Second; d < max {
				return d
			}
		}
	}
	return max
}

// printText renders the human-readable report.
func printText(w io.Writer, rep *report) {
	fmt.Fprintf(w, "offered   %10.0f req/s\n", rep.OfferedRate)
	fmt.Fprintf(w, "achieved  %10.0f req/s  (%d/%d completed in %v)\n",
		rep.AchievedRate, rep.Completed, rep.Scheduled, rep.Duration.Round(time.Millisecond))
	fmt.Fprintf(w, "hits      %10d  (%.1f%% of served)\n", rep.Hits, 100*rep.HitRate())
	fmt.Fprintf(w, "shed      %10d\nerrors    %10d\n", rep.Shed, rep.Errors)
	if rep.Farm.CoalescedMisses > 0 {
		fmt.Fprintf(w, "coalesced %10d  (misses that shared an in-flight fetch)\n", rep.Farm.CoalescedMisses)
	}
	if rep.ShedRetries > 0 {
		fmt.Fprintf(w, "backoffs  %10d  (honored Retry-After)\n", rep.ShedRetries)
	}
	if ft := rep.Farm; ft.RetriedFetches+ft.FailoverOrigin+ft.PeerDownRefusals+ft.HedgedFetches > 0 {
		fmt.Fprintf(w, "faults    retried %d  failover-origin %d  peer-down-refusals %d  hedged %d (won %d)  stale-invalidated %d\n",
			ft.RetriedFetches, ft.FailoverOrigin, ft.PeerDownRefusals, ft.HedgedFetches, ft.HedgeWins, ft.StaleInvalidated)
	}
	fmt.Fprintf(w, "latency   p50 %v  p90 %v  p99 %v  p99.9 %v\n",
		us(rep.P50us), us(rep.P90us), us(rep.P99us), us(rep.P999us))
	if t := rep.Trace; t != nil {
		fmt.Fprintf(w, "trace     %10d trees  (%d complete, %d truncated, %d orphaned; %.1f%% reconstructed)",
			t.Trees, t.Complete, t.Truncated, t.Orphaned, 100*t.CompleteFraction)
		if t.Skipped > 0 {
			fmt.Fprintf(w, "  [%d/%d proxies unreachable]", t.Skipped, t.Proxies)
		}
		fmt.Fprintln(w)
	}
	if rep.MetricsLinted > 0 {
		fmt.Fprintf(w, "metrics   %10d proxies scraped, exposition lint clean\n", rep.MetricsLinted)
	}
	replicated := rep.Farm.ReplicaPushes > 0 || rep.Farm.ReplicaHits > 0
	cols := "requests / local hits / shed / coalesced"
	if replicated {
		cols += " / rep hits / pushes / drops"
	}
	fmt.Fprintf(w, "per proxy (%s):\n", cols)
	for _, p := range rep.Proxies {
		fmt.Fprintf(w, "  proxy %2d  %8d / %8d / %6d / %6d", p.ID, p.Requests, p.LocalHits, p.Shed, p.CoalescedMisses)
		if replicated {
			fmt.Fprintf(w, " / %6d / %6d / %6d", p.ReplicaHits, p.ReplicaPushes, p.ReplicaDrops)
		}
		fmt.Fprintln(w)
	}
	if rep.Chaos != nil {
		printChaos(w, rep.Chaos)
	}
}

func us(v float64) time.Duration {
	return time.Duration(v) * time.Microsecond
}

// parseFlags registers every flag on fs, parses args, and refuses a flag
// that modifies a feature left off or that -serve does not read.
func parseFlags(fs *flag.FlagSet, args []string) (cfg config, serve bool, err error) {
	fs.BoolVar(&serve, "serve", false, "build and warm the farm, print its URLs, and serve until interrupted instead of measuring")
	fs.IntVar(&cfg.Proxies, "proxies", 8, "number of proxies in the farm")
	fc := &cfg.Farm
	fs.IntVar(&fc.Tables.SingleSize, "single", 4096, "single-location table size per proxy")
	fs.IntVar(&fc.Tables.MultipleSize, "multiple", 4096, "multiple-location table size per proxy")
	fs.IntVar(&fc.Tables.CachingSize, "caching", 2048, "caching table size per proxy")
	fs.IntVar(&fc.MaxHops, "maxhops", 0, "forwarding hop bound (0 = unbounded)")
	fs.Int64Var(&fc.Seed, "seed", 1, "workload and peer-selection seed")
	fs.Float64Var(&cfg.Rate, "rate", 2000, "offered arrival rate, req/s")
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "measurement window")
	fs.IntVar(&cfg.Conns, "conns", 64, "concurrent client connections")
	fs.StringVar(&cfg.Profile, "profile", "paper", "request profile: paper, zipf or uniform")
	fs.IntVar(&cfg.Population, "population", 2048, "hot object population")
	fs.Float64Var(&cfg.Alpha, "alpha", 0.8, "Zipf exponent (zipf and paper profiles)")
	fs.IntVar(&cfg.Warm, "warm", 4096, "closed-loop warm-up requests before measuring")
	fs.IntVar(&fc.MaxActive, "max-active", 0, "per-proxy active-request bound (0 = default, <0 = unlimited)")
	fs.IntVar(&fc.MaxQueue, "max-queue", 0, "per-proxy admission queue bound (0 = default, <0 = none)")
	fs.BoolVar(&fc.NoCoalesce, "nocoalesce", false, "disable miss coalescing (ablation)")
	fs.BoolVar(&fc.Replication.Enabled, "replicate", false, "enable hot-object replication with load-aware routing")
	fs.IntVar(&fc.Replication.HotThreshold, "rep-threshold", 0, "replication: window hits before pushing (0 = default; with -replicate)")
	fs.IntVar(&fc.Replication.MaxReplicas, "rep-max", 0, "replication: max replicas beyond the primary (0 = default; with -replicate)")
	fs.Int64Var(&fc.Replication.Window, "rep-window", 0, "replication: decay window in requests (0 = default; with -replicate)")
	fs.StringVar(&cfg.Faults, "faults", "", `fault schedule in adcsim's -faults grammar; the farm plays kill, restart and partition, e.g. "kill=p3@5s,restart=p3@15s,partition=p1:p2@8s+4s" (implies -health)`)
	ft := &fc.FaultTolerance
	fs.BoolVar(&ft.Health.Enabled, "health", false, "enable peer health probing, failover routing, retries and hedging")
	fs.DurationVar(&ft.Health.ProbeInterval, "probe-interval", 0, "health probe interval (0 = default 250ms; with -health)")
	fs.IntVar(&ft.Health.FailureThreshold, "fail-threshold", 0, "consecutive failures marking a peer down (0 = default 3; with -health)")
	fs.IntVar(&ft.MaxRetries, "retries", 0, "entry-chain failover retries (0 = default 2, <0 = none; with -health)")
	fs.DurationVar(&ft.HedgeDelay, "hedge", 0, "hedged origin fetch after this delay (0 = off; with -health)")
	fs.DurationVar(&cfg.AvailWindow, "avail-window", 0, "availability window for chaos/health runs (0 = default 500ms)")
	fs.DurationVar(&cfg.RetryAfterMax, "retry-after-max", 0, "honor 429 Retry-After up to this backoff (0 = record the shed immediately)")
	fs.IntVar(&fc.Tracing.SampleEvery, "trace-sample", 0, "trace 1-in-N entry requests with cross-proxy spans (0 = off, 1 = all)")
	fs.IntVar(&fc.Tracing.RingSize, "trace-ring", 0, "per-proxy span ring capacity (0 = default; with -trace-sample or -trace-dump)")
	fs.StringVar(&cfg.TraceDump, "trace-dump", "", "write scraped span dumps as JSON to this file for adctrace (implies -trace-sample 1)")
	fs.BoolVar(&cfg.LintMetrics, "lint-metrics", false, "scrape and lint every proxy's /metrics after the run")
	fs.BoolVar(&cfg.JSONOut, "json", false, "emit the report as JSON on stdout")
	fs.BoolVar(&cfg.Quiet, "quiet", false, "suppress the latency histogram")
	if err := fs.Parse(args); err != nil {
		return cfg, false, err
	}
	for _, c := range []struct {
		off   bool
		why   string
		names []string
	}{
		// A measured run's window, chaos schedule and epilogue.
		{serve, "is not read with -serve", []string{"rate", "duration", "faults", "avail-window", "trace-dump", "lint-metrics", "json", "quiet"}},
		{!ft.Health.Enabled && cfg.Faults == "", "needs -health", []string{"probe-interval", "fail-threshold", "retries", "hedge"}},
		{!fc.Replication.Enabled, "needs -replicate", []string{"rep-threshold", "rep-max", "rep-window"}},
		{fc.Tracing.SampleEvery <= 0 && cfg.TraceDump == "", "needs -trace-sample", []string{"trace-ring"}},
	} {
		if c.off {
			if err := clilog.Refuse(fs, c.why, c.names...); err != nil {
				return cfg, serve, fmt.Errorf("adcload: %w", err)
			}
		}
	}
	return cfg, serve, nil
}

func main() {
	cfg, serving, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if serving {
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		if err := serve(cfg, os.Stdout, stop); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if cfg.JSONOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		printText(os.Stdout, rep)
		if !cfg.Quiet {
			fmt.Println("\nlatency histogram (µs buckets):")
			fmt.Print(rep.hist.String())
		}
	}
	// Under a chaos schedule errors are the experiment, not a failure —
	// the availability report carries the verdict instead.
	if rep.Errors > 0 && cfg.Faults == "" {
		os.Exit(1)
	}
}
