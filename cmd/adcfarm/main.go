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
// dashboard) and /debug/pprof/ (Go profiler). With -trace-sample N,
// 1-in-N requests are recorded as cross-proxy spans into per-proxy
// /debug/trace rings, carrying each hop's table outcome and route reason;
// adctrace farm <proxy-url...> scrapes them into request trees.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
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
	var cfg adc.HTTPFarmConfig
	fs.IntVar(&cfg.Proxies, "proxies", 5, "number of proxy servers")
	fs.IntVar(&cfg.SingleTable, "single", 2000, "single-table size")
	fs.IntVar(&cfg.MultipleTable, "multiple", 2000, "multiple-table size")
	fs.IntVar(&cfg.CachingTable, "caching", 1000, "caching-table size (payload store)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	warm := fs.Int("warm", 0, "warm up with this many synthetic requests before serving")
	parallel := fs.Int("parallel", runtime.NumCPU(), "concurrent warm-up clients (1 = deterministic single client)")
	fs.IntVar(&cfg.TraceSample, "trace-sample", 0, "span-trace 1-in-N entry requests across proxies (0 = off, 1 = all; see adctrace farm)")
	fs.BoolVar(&cfg.Health, "health", false, "enable peer health probing, failover routing, retries and hedging")
	fs.DurationVar(&cfg.ProbeInterval, "probe-interval", 0, "health probe interval (0 = default 250ms; with -health)")
	fs.IntVar(&cfg.FailureThreshold, "fail-threshold", 0, "consecutive failures marking a peer down (0 = default 3; with -health)")
	fs.IntVar(&cfg.MaxRetries, "retries", 0, "entry-chain failover retries (0 = default 2, negative = none; with -health)")
	fs.DurationVar(&cfg.HedgeDelay, "hedge", 0, "hedged origin fetch after this delay (0 = off; with -health)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Without -health the farm leaves fault tolerance off, so a flag
	// tuning it alone would silently do nothing.
	var err error
	fs.Visit(func(f *flag.Flag) {
		if !cfg.Health && err == nil && slices.Contains([]string{"probe-interval", "fail-threshold", "retries", "hedge"}, f.Name) {
			err = fmt.Errorf("-%s needs -health", f.Name)
		}
	})
	if err != nil {
		return err
	}

	farm, err := adc.NewHTTPFarm(cfg)
	if err != nil {
		return err
	}
	defer farm.Close() //nolint:errcheck // teardown on exit

	if *warm > 0 {
		gen, err := adc.NewWorkload(adc.WorkloadConfig{
			Requests:   *warm,
			Population: cfg.CachingTable,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return err
		}
		requests, hits, err := farm.RunParallel(gen, cfg.Seed, *parallel)
		if err != nil {
			return err
		}
		fmt.Printf("warmed with %d requests (hit rate %.3f, %d clients)\n",
			requests, float64(hits)/float64(requests), *parallel)
	}

	fmt.Printf("origin: %s\n", farm.OriginURL())
	urls := make([]string, cfg.Proxies)
	for i := range urls {
		url, err := farm.ProxyURL(i)
		if err != nil {
			return err
		}
		urls[i] = url
		fmt.Printf("proxy %d: %s  (introspection: %s/debug/vars, %s/debug/tables, %s/metrics, %s/debug/pprof/)\n",
			i, url, url, url, url, url)
	}
	fmt.Println("\nfetch objects with:")
	url, _ := farm.ProxyURL(0)
	fmt.Printf("  curl -H 'X-Adc-Request-Id: r1' %s/obj/42\n", url)
	fmt.Printf("\nwatch the farm live with:\n  go run ./cmd/adctop %s\n", strings.Join(urls, " "))
	if cfg.TraceSample > 0 {
		fmt.Printf("\nrebuild the traced requests' trees with:\n  go run ./cmd/adctrace farm %s\n", strings.Join(urls, " "))
	}
	fmt.Println("\nserving; Ctrl-C to stop")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("\nshutting down")
	return nil
}
