// Command adcfarm launches a live ADC HTTP proxy farm on loopback ports
// and keeps it serving until interrupted — the paper's future-work "real
// proxy system" (§VI) as a runnable daemon. Any HTTP client can fetch
// objects through any proxy:
//
//	adcfarm -proxies 4 &
//	curl -H 'X-Adc-Request-Id: r1' http://127.0.0.1:<port>/obj/42
//
// Optionally warm the farm first with a synthetic workload (-warm) so the
// caches and mapping tables start converged.
//
// Every proxy also serves live introspection: /debug/vars (JSON counters
// and table occupancy), /debug/tables (mapping-table dump), /metrics
// (Prometheus text exposition — point adctop at the proxy URLs for a live
// dashboard) and /debug/pprof/ (Go profiler). With -trace, a request-path
// trace is recorded and written as JSON Lines on shutdown for adctrace;
// with -trace-sample N, cross-proxy spans are recorded into per-proxy
// /debug/trace rings for adctrace farm.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"github.com/adc-sim/adc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adcfarm:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adcfarm", flag.ContinueOnError)
	var (
		proxies  = fs.Int("proxies", 5, "number of proxy servers")
		single   = fs.Int("single", 2000, "single-table size")
		multiple = fs.Int("multiple", 2000, "multiple-table size")
		caching  = fs.Int("caching", 1000, "caching-table size (payload store)")
		seed     = fs.Int64("seed", 1, "random seed")
		warm     = fs.Int("warm", 0, "warm up with this many synthetic requests before serving")
		parallel = fs.Int("parallel", runtime.NumCPU(), "concurrent warm-up clients (1 = deterministic single client)")
		traceOn  = fs.Bool("trace", false, "record a request-path trace, written on shutdown")
		traceOut = fs.String("trace-out", "farm-trace.jsonl", "trace output file (JSON Lines; with -trace)")
		traceN   = fs.Int("trace-sample", 0, "span-trace 1-in-N entry requests across proxies (0 = off, 1 = all; see adctrace farm)")

		health        = fs.Bool("health", false, "enable peer health probing, failover routing, retries and hedging")
		probeInterval = fs.Duration("probe-interval", 0, "health probe interval (0 = default 250ms; with -health)")
		failThreshold = fs.Int("fail-threshold", 0, "consecutive failures marking a peer down (0 = default 3; with -health)")
		retries       = fs.Int("retries", 0, "entry-chain failover retries (0 = default 2, negative = none; with -health)")
		hedge         = fs.Duration("hedge", 0, "hedged origin fetch after this delay (0 = off; with -health)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	farm, err := adc.NewHTTPFarm(adc.HTTPFarmConfig{
		Proxies:          *proxies,
		SingleTable:      *single,
		MultipleTable:    *multiple,
		CachingTable:     *caching,
		Seed:             *seed,
		Health:           *health,
		ProbeInterval:    *probeInterval,
		FailureThreshold: *failThreshold,
		MaxRetries:       *retries,
		HedgeDelay:       *hedge,
		TraceSample:      *traceN,
	})
	if err != nil {
		return err
	}
	defer farm.Close() //nolint:errcheck // teardown on exit

	var tracer *adc.Tracer
	if *traceOn {
		tracer = adc.NewTracer()
		farm.SetTracer(tracer)
	}

	if *warm > 0 {
		gen, err := adc.NewWorkload(adc.WorkloadConfig{
			Requests:   *warm,
			Population: *caching,
			Seed:       *seed,
		})
		if err != nil {
			return err
		}
		requests, hits, err := farm.RunParallel(gen, *seed, *parallel)
		if err != nil {
			return err
		}
		fmt.Printf("warmed with %d requests (hit rate %.3f, %d clients)\n",
			requests, float64(hits)/float64(requests), *parallel)
	}

	fmt.Printf("origin: %s\n", farm.OriginURL())
	for i := 0; i < *proxies; i++ {
		url, err := farm.ProxyURL(i)
		if err != nil {
			return err
		}
		fmt.Printf("proxy %d: %s  (introspection: %s/debug/vars, %s/debug/tables, %s/metrics, %s/debug/pprof/)\n",
			i, url, url, url, url, url)
	}
	fmt.Println("\nfetch objects with:")
	url, _ := farm.ProxyURL(0)
	fmt.Printf("  curl -H 'X-Adc-Request-Id: r1' %s/obj/42\n", url)
	fmt.Printf("\nwatch the farm live with:\n  go run ./cmd/adctop")
	for i := 0; i < *proxies; i++ {
		u, _ := farm.ProxyURL(i)
		fmt.Printf(" %s", u)
	}
	fmt.Println()
	fmt.Println("\nserving; Ctrl-C to stop")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("\nshutting down")
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := adc.WriteTrace(f, tracer); err != nil {
			f.Close() //nolint:errcheck,gosec // write error takes precedence
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace events to %s\n", tracer.Len(), *traceOut)
	}
	return nil
}
