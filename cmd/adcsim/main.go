// Command adcsim runs one distributed-caching simulation and prints a
// summary report: algorithm, hit rate, hops, per-proxy statistics.
//
// Examples:
//
//	adcsim                              # ADC, paper-scale tables, 400k requests
//	adcsim -algo carp -requests 1000000
//	adcsim -proxies 8 -single 5000 -multiple 5000 -caching 2000
//	adcsim -runtime agents              # one goroutine per node, channel mailboxes
//	adcsim -replay trace.bin            # replay a saved workload trace
//	adcsim -trace -trace-out t.jsonl    # record a request-path trace
//	adcsim -config experiment.json      # run a JSON-described experiment
//	adcsim -write-config exp.json       # write the default experiment file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"

	"github.com/adc-sim/adc"
	"github.com/adc-sim/adc/internal/clilog"
	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/config"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/profiling"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adcsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adcsim", flag.ContinueOnError)
	var (
		algo         = fs.String("algo", "adc", "algorithm: adc, carp or chash")
		proxies      = fs.Int("proxies", 5, "number of proxy agents")
		single       = fs.Int("single", 2000, "single-table size (entries)")
		multiple     = fs.Int("multiple", 2000, "multiple-table size (entries)")
		caching      = fs.Int("caching", 1000, "caching-table / LRU cache size (entries)")
		maxHops      = fs.Int("maxhops", 0, "forwarding bound (0 = unbounded)")
		seed         = fs.Int64("seed", 1, "random seed")
		runtime      = fs.String("runtime", "sequential", "runtime: sequential, agents or vtime")
		shards       = fs.Int("shards", 0, "worker shards for -runtime vtime (0 or 1 = sequential; results are identical at every count)")
		backend      = fs.String("backend", "", "ordered-table backend: btree (default), slice or list")
		entry        = fs.String("entry", "random", "entry policy: random, round-robin or fixed")
		requests     = fs.Int("requests", 400_000, "synthetic workload length")
		population   = fs.Int("population", 1000, "hot object population of the request phases")
		replayPath   = fs.String("replay", "", "replay a binary workload trace instead of generating")
		traceOn      = fs.Bool("trace", false, "record a request-path trace (-runtime sequential or vtime)")
		traceOut     = fs.String("trace-out", "trace.jsonl", "request-path trace output file (JSON Lines; with -trace)")
		metricsEvery = fs.Int64("metrics-every", 0, "collect windowed time-series metrics every this many virtual ticks (-runtime vtime)")
		metricsOut   = fs.String("metrics-out", "", "write the time series as CSV here (default: stdout)")
		verbose      = fs.Bool("v", false, "verbose: per-proxy statistics and debug logging")
		quiet        = fs.Bool("quiet", false, "suppress the run summary and notices (machine outputs only)")
		configPath   = fs.String("config", "", "run a JSON experiment file instead of flags")
		writeCfg     = fs.String("write-config", "", "write the default experiment file and exit")
		dump         = fs.Int("dump", -1, "after an ADC run, dump the top rows of this proxy's tables (paper Figs. 1–3)")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = fs.String("memprofile", "", "write a heap profile to this file")
		faultSpec    = fs.String("faults", "", "fault plan, e.g. 'loss=0.01,jitter=2ms,link=1>2:0.05,kill=p0@2s,restart=p0@4s!' (times in ticks or durations, 1 tick = 1µs; ! = cold restart; -runtime vtime; partition= is adcload's)")
	)
	var recoverySpec optionalString
	fs.Var(&recoverySpec, "recovery", "enable the recovery protocol; optionally 'timeout=400ms,retries=8,backoff=2,ttl=1s' (-runtime vtime)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	log := clilog.FromFlags(*verbose, *quiet)

	if *writeCfg != "" {
		if err := config.Default().Save(*writeCfg); err != nil {
			return err
		}
		fmt.Printf("wrote default experiment to %s\n", *writeCfg)
		return nil
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	if *configPath != "" {
		if err := runConfigFile(*configPath, *verbose); err != nil {
			return err
		}
		return stopProfiles()
	}
	if *dump >= 0 {
		if err := refuseWithDump(fs); err != nil {
			return err
		}
		if err := runWithDump(dumpOptions{
			algo: *algo, proxies: *proxies,
			single: *single, multiple: *multiple, caching: *caching,
			maxHops: *maxHops, seed: *seed,
			requests: *requests, population: *population,
			proxyIdx: *dump, backend: *backend, entry: *entry,
		}); err != nil {
			return err
		}
		return stopProfiles()
	}

	var src adc.Source
	if *replayPath != "" {
		loaded, err := adc.LoadTraceFile(*replayPath)
		if err != nil {
			return err
		}
		src = loaded
	} else {
		gen, err := adc.NewWorkload(adc.WorkloadConfig{
			Requests:   *requests,
			Population: *population,
			Seed:       *seed,
		})
		if err != nil {
			return err
		}
		src = gen
	}

	cfg := adc.Config{
		Algorithm:     adc.Algorithm(*algo),
		Proxies:       *proxies,
		SingleTable:   *single,
		MultipleTable: *multiple,
		CachingTable:  *caching,
		MaxHops:       *maxHops,
		Seed:          *seed,
		Entry:         adc.EntryPolicy(*entry),
		Runtime:       adc.Runtime(*runtime),
		Backend:       adc.TableBackend(*backend),
		MetricsEvery:  *metricsEvery,
		Shards:        *shards,
	}
	var tracer *adc.Tracer
	if *traceOn {
		tracer = adc.NewTracer()
		cfg.Tracer = tracer
	}
	if *faultSpec != "" {
		plan, err := adc.ParseFaultSpec(*faultSpec)
		if err != nil {
			return err
		}
		cfg.Faults = plan
	}
	if recoverySpec.set {
		rec, err := adc.ParseRecoverySpec(recoverySpec.value)
		if err != nil {
			return err
		}
		cfg.Recovery = rec
	}
	res, err := adc.Run(cfg, src)
	if err != nil {
		return err
	}
	if err := stopProfiles(); err != nil {
		return err
	}
	if tracer != nil {
		if err := writeTraceFile(*traceOut, tracer); err != nil {
			return err
		}
		log.Infof("wrote %d trace events to %s", tracer.Len(), *traceOut)
	}
	if *metricsEvery > 0 {
		if err := writeBuckets(*metricsOut, res.Buckets, log); err != nil {
			return err
		}
	}
	if *quiet {
		return nil
	}

	fmt.Printf("algorithm      %s (%d proxies, runtime %s)\n", *algo, *proxies, *runtime)
	fmt.Printf("tables         single=%d multiple=%d caching=%d\n", *single, *multiple, *caching)
	fmt.Printf("requests       %d\n", res.Requests)
	fmt.Printf("hit rate       %.4f (%d hits, %d from origin)\n", res.HitRate, res.Hits, res.OriginResolved)
	fmt.Printf("hops/request   %.3f\n", res.Hops)
	fmt.Printf("path length    %.3f proxies\n", res.PathLen)
	fmt.Printf("elapsed        %v (%.0f req/s)\n",
		res.Elapsed.Round(1e6), float64(res.Requests)/res.Elapsed.Seconds())
	if cfg.Faults != nil || cfg.Recovery != nil {
		fmt.Printf("completion     %.4f (%d of %d injected)\n", res.Completion, res.Requests, res.Injected)
		fmt.Printf("faults         dropped=%d crashes=%d restarts=%d\n", res.Dropped, res.Crashes, res.Restarts)
		fmt.Printf("recovery       timeouts=%d retries=%d abandoned=%d stale-replies=%d leaked-pending=%d\n",
			res.Timeouts, res.Retries, res.Abandoned, res.StaleReplies, res.LeakedPending)
	} else {
		// Without fault injection these must both be zero; a nonzero value
		// means protocol state leaked and should never hide behind -v.
		var unexpected uint64
		for _, s := range res.ProxyStats {
			unexpected += s.UnexpectedReplies
		}
		if res.LeakedPending > 0 || unexpected > 0 {
			fmt.Printf("WARNING        leaked-pending=%d unexpected-replies=%d (protocol state leaked; -v for per-proxy detail)\n",
				res.LeakedPending, unexpected)
		}
	}

	if *verbose {
		if err := printProxyStats(res.ProxyStats); err != nil {
			return err
		}
	}
	return nil
}

// writeTraceFile exports a recorded trace as JSON Lines.
func writeTraceFile(path string, t *adc.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := adc.WriteTrace(f, t); err != nil {
		f.Close() //nolint:errcheck,gosec // write error takes precedence
		return err
	}
	return f.Close()
}

// writeBuckets emits the time-series buckets as CSV — to a file when path
// is set, else to stdout (the report channel; combine with -quiet to pipe
// it cleanly).
func writeBuckets(path string, buckets []adc.TimeBucket, log *clilog.Logger) error {
	var w io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck // close error checked below
		w = f
	}
	fmt.Fprintln(w, "start,end,injected,completed,hits,hit_rate,mean_hops,mean_gap,timeouts,retries,abandoned,drops")
	for _, b := range buckets {
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.6f,%.4f,%.1f,%d,%d,%d,%d\n",
			b.Start, b.End, b.Injected, b.Completed, b.Hits,
			b.HitRate, b.MeanHops, b.MeanGap,
			b.Timeouts, b.Retries, b.Abandoned, b.Drops)
	}
	if f, ok := w.(*os.File); ok && f != os.Stdout {
		if err := f.Close(); err != nil {
			return err
		}
		log.Infof("wrote %d time-series buckets to %s", len(buckets), path)
	}
	return nil
}

// optionalString is a flag value that remembers whether it was provided at
// all, so `-recovery ”` (defaults) is distinguishable from no flag.
type optionalString struct {
	value string
	set   bool
}

func (o *optionalString) String() string { return o.value }

func (o *optionalString) Set(s string) error {
	o.value = s
	o.set = true
	return nil
}

func printProxyStats(stats []adc.ProxyStats) error {
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "proxy\trequests\tlocal hits\tfwd learned\tfwd random\tfwd origin\tloops\tcache ins\tcache evict")
	for i, s := range stats {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			i, s.Requests, s.LocalHits, s.ForwardLearned, s.ForwardRandom,
			s.ForwardOrigin, s.LoopsDetected, s.CacheInsertions, s.CacheEvictions)
	}
	return w.Flush()
}

type dumpOptions struct {
	algo                      string
	proxies                   int
	single, multiple, caching int
	maxHops                   int
	seed                      int64
	requests, population      int
	proxyIdx                  int
	backend, entry            string
}

// dumpRefuses names the flags a -dump run cannot honour: it runs the
// sequential engine over a generated workload, untraced and lossless.
var dumpRefuses = []string{"faults", "metrics-every", "recovery", "replay", "runtime", "shards", "trace"}

// refuseWithDump fails, naming the flag, if any of dumpRefuses was set.
func refuseWithDump(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(dumpRefuses, f.Name) {
			err = fmt.Errorf("-dump does not support -%s", f.Name)
		}
	})
	return err
}

// runWithDump runs via the internal cluster layer so the proxy's mapping
// tables can be rendered afterwards, in the layout of the paper's sample
// figures (Figs. 1–3).
func runWithDump(o dumpOptions) error {
	if o.algo != "adc" {
		return fmt.Errorf("-dump requires the adc algorithm")
	}
	if o.proxyIdx >= o.proxies {
		return fmt.Errorf("-dump proxy %d out of range (0..%d)", o.proxyIdx, o.proxies-1)
	}
	backend, err := core.ParseBackend(o.backend)
	if err != nil {
		return err
	}
	entry, err := sim.ParseEntryPolicy(o.entry)
	if err != nil {
		return err
	}
	gen, err := workload.New(workload.Config{
		TotalRequests:  o.requests,
		PopulationSize: o.population,
		Seed:           o.seed,
	})
	if err != nil {
		return err
	}
	ccfg := cluster.Config{
		Algorithm:  cluster.ADC,
		NumProxies: o.proxies,
		Tables: core.Config{
			SingleSize:   o.single,
			MultipleSize: o.multiple,
			CachingSize:  o.caching,
			Backend:      backend,
		},
		MaxHops:     o.maxHops,
		Seed:        o.seed,
		EntryPolicy: entry,
	}
	cl, err := cluster.New(ccfg, gen)
	if err != nil {
		return err
	}
	res, err := cl.Run()
	if err != nil {
		return err
	}
	fmt.Printf("hit rate %.4f, hops %.3f over %d requests\n\n",
		res.Summary.HitRate, res.Summary.Hops, res.Summary.Requests)

	p := cl.ADCProxies()[o.proxyIdx]
	a := p.Policy().(*protocol.Agent) // an ADC cluster: every policy is an agent
	now := a.LocalTime()
	fmt.Printf("mapping tables of %v at local time %d (top 10 rows each):\n\n", p.ID(), now)
	tb := a.Tables()
	if err := core.DumpTable(os.Stdout, "Caching Table", head(tb.Caching().Entries(), 10), now); err != nil {
		return err
	}
	fmt.Println()
	if err := core.DumpTable(os.Stdout, "Multiple-Table", head(tb.Multiple().Entries(), 10), now); err != nil {
		return err
	}
	fmt.Println()
	return core.DumpTable(os.Stdout, "Single-Table", head(tb.Single().Entries(), 10), now)
}

func head(entries []*core.Entry, n int) []*core.Entry {
	if len(entries) > n {
		return entries[:n]
	}
	return entries
}

// runConfigFile executes a JSON-described experiment via the internal
// cluster layer (the config schema maps 1:1 onto it).
func runConfigFile(path string, verbose bool) error {
	file, err := config.Load(path)
	if err != nil {
		return err
	}
	ccfg, wcfg, err := file.Build()
	if err != nil {
		return err
	}
	gen, err := workload.New(wcfg)
	if err != nil {
		return err
	}
	res, err := cluster.Run(ccfg, gen)
	if err != nil {
		return err
	}
	fmt.Printf("experiment     %s\n", path)
	fmt.Printf("algorithm      %s (%d proxies, runtime %s)\n",
		ccfg.Algorithm, ccfg.NumProxies, ccfg.Runtime)
	fmt.Printf("requests       %d\n", res.Summary.Requests)
	fmt.Printf("hit rate       %.4f\n", res.Summary.HitRate)
	fmt.Printf("hops/request   %.3f\n", res.Summary.Hops)
	fmt.Printf("elapsed        %v\n", res.Elapsed.Round(1e6))
	if verbose {
		return printProxyStats(res.ProxyStats)
	}
	return nil
}
