// Command adcsim runs one distributed-caching simulation and prints a
// summary report: algorithm, hit rate, hops, per-proxy statistics. With
// -write-trace it writes the request stream the run would simulate as a
// binary trace instead, so -replay repeats the run exactly (§V.1.6).
//
// Examples:
//
//	adcsim                              # ADC, the paper's setup at 1/10 scale (399k requests)
//	adcsim -algo carp -requests 1000000
//	adcsim -proxies 8 -single 5000 -multiple 5000 -caching 2000
//	adcsim -runtime vtime               # virtual time: response times too
//	adcsim -write-trace trace.bin       # write the default run's stream, print its statistics
//	adcsim -replay trace.bin            # replay it: the same run as a flagless adcsim
//	adcsim -from-squid access.log       # simulate the requests of a Squid log
//	adcsim -from-squid access.log -write-trace real.bin  # convert the log to a trace
//	adcsim -trace t.spans.json          # record a request-path trace for adctrace
//	adcsim -config experiment.json      # run a JSON-described experiment
//	adcsim -write-config exp.json       # write the default experiment file
//
// The flag defaults are that default experiment, so a flagless run and
// -config of the written file are the same run. With -config, the file
// describes the experiment and a flag that would too is refused; the run's
// other flags (-trace, -metrics-every, -replay, -v, -quiet, the
// profiles) apply to either. Each mode (-config, -write-trace, -dump) and
// each recorded source (-replay, -from-squid) refuses by name a flag it
// does not read.
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
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/profiling"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/trace"
	"github.com/adc-sim/adc/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adcsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	def := config.Default()
	fs := flag.NewFlagSet("adcsim", flag.ContinueOnError)
	var (
		algo         = fs.String("algo", def.Algorithm, "algorithm: adc, carp or chash")
		proxies      = fs.Int("proxies", def.Proxies, "number of proxy agents")
		single       = fs.Int("single", def.SingleTable, "single-table size (entries)")
		multiple     = fs.Int("multiple", def.MultipleTable, "multiple-table size (entries)")
		caching      = fs.Int("caching", def.CachingTable, "caching-table / LRU cache size (entries)")
		maxHops      = fs.Int("maxhops", def.MaxHops, "forwarding bound (0 = unbounded)")
		seed         = fs.Int64("seed", def.Seed, "random seed")
		runtime      = fs.String("runtime", "sequential", "latency preset of the one engine: sequential (zero-cost links, FIFO delivery) or vtime (WAN latencies, response times)")
		backend      = fs.String("backend", "", "ordered-table backend: btree (default, a binary max-heap) or list")
		entry        = fs.String("entry", "random", "entry policy: random, round-robin or fixed")
		requests     = fs.Int("requests", def.Workload.Requests, "synthetic workload length")
		population   = fs.Int("population", def.Workload.Population, "hot object population of the request phases (0 = 20% of the fill phase's objects)")
		alpha        = fs.Float64("alpha", def.Workload.Alpha, "Zipf popularity exponent of the request phases (0 = 0.8)")
		oneTimers    = fs.Float64("onetimers", def.Workload.OneTimerProb, "request-phase one-timer probability (0 = 0.3, negative = none)")
		replayPath   = fs.String("replay", "", "replay a binary workload trace instead of generating")
		squidPath    = fs.String("from-squid", "", "take the requests of a Squid access.log instead of generating")
		writePath    = fs.String("write-trace", "", "write the request stream as a binary trace, print its statistics and exit")
		tracePath    = fs.String("trace", "", "record a request-path trace and write it to this file as a span dump (adctrace reads it)")
		metricsEvery = fs.Int64("metrics-every", 0, "collect windowed time-series metrics every this many virtual ticks (-runtime vtime)")
		metricsOut   = fs.String("metrics-out", "", "write the time series as CSV here (default: stdout; with -metrics-every)")
		verbose      = fs.Bool("v", false, "verbose: per-proxy statistics and debug logging")
		quiet        = fs.Bool("quiet", false, "suppress the run summary and notices (machine outputs only)")
		configPath   = fs.String("config", "", "run a JSON experiment file instead of the experiment flags")
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
		if err := def.Save(*writeCfg); err != nil {
			return err
		}
		fmt.Printf("wrote default experiment to %s\n", *writeCfg)
		return nil
	}

	file := config.File{
		Algorithm:     *algo,
		Proxies:       *proxies,
		SingleTable:   *single,
		MultipleTable: *multiple,
		CachingTable:  *caching,
		MaxHops:       *maxHops,
		Seed:          *seed,
		Entry:         *entry,
		Runtime:       *runtime,
		Backend:       *backend,
		Workload:      config.WorkloadSection{Requests: *requests, Population: *population, Alpha: *alpha, OneTimerProb: *oneTimers},
		Faults:        *faultSpec,
	}
	if recoverySpec.set {
		file.Recovery = &recoverySpec.value
	}
	if err := refuseUnread(fs, *writePath != "", *replayPath != "", *squidPath != "", *dump >= 0); err != nil {
		return err
	}
	if *metricsEvery <= 0 {
		if err := clilog.Refuse(fs, "needs -metrics-every", "metrics-out"); err != nil {
			return err
		}
	}
	if *configPath != "" {
		if err := clilog.Refuse(fs, "is not read with -config", fileFlags...); err != nil {
			return err
		}
		loaded, err := config.Load(*configPath)
		if err != nil {
			return err
		}
		file = loaded
	}
	ccfg, wcfg, err := file.Build()
	if err != nil {
		return err
	}
	if *writePath != "" {
		src, err := source(*replayPath, *squidPath, wcfg, log)
		if err != nil {
			return err
		}
		return writeTrace(*writePath, src)
	}
	if *dump >= 0 && ccfg.Algorithm != cluster.ADC {
		return fmt.Errorf("-dump requires the adc algorithm")
	}
	if *dump >= ccfg.NumProxies {
		return fmt.Errorf("-dump proxy %d out of range (0..%d)", *dump, ccfg.NumProxies-1)
	}
	ccfg.MetricsEvery = *metricsEvery
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.New()
		ccfg.Tracer = tracer
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	src, err := source(*replayPath, *squidPath, wcfg, log)
	if err != nil {
		return err
	}
	cl, err := cluster.New(ccfg, src)
	if err != nil {
		return err
	}
	res, err := cl.Run()
	if err != nil {
		return err
	}
	if err := stopProfiles(); err != nil {
		return err
	}
	if *dump >= 0 {
		return dumpTables(cl, res, *dump)
	}
	if tracer != nil {
		if err := writeTraceFile(*tracePath, tracer); err != nil {
			return err
		}
		log.Infof("wrote %d trace events as spans to %s", tracer.Len(), *tracePath)
	}
	if *metricsEvery > 0 {
		if err := writeBuckets(*metricsOut, res.Buckets, log); err != nil {
			return err
		}
	}
	if *quiet {
		return nil
	}
	if *configPath != "" {
		fmt.Printf("experiment     %s\n", *configPath)
	}
	return report(ccfg, res, *verbose)
}

// report prints a run's summary, whether flags or a file described it.
func report(ccfg cluster.Config, res *cluster.Result, verbose bool) error {
	s := res.Summary
	fmt.Printf("algorithm      %s (%d proxies, runtime %s)\n", ccfg.Algorithm, ccfg.NumProxies, ccfg.Runtime)
	fmt.Printf("tables         single=%d multiple=%d caching=%d\n", ccfg.Tables.SingleSize, ccfg.Tables.MultipleSize, ccfg.Tables.CachingSize)
	fmt.Printf("requests       %d\n", s.Requests)
	fmt.Printf("hit rate       %.4f (%d hits, %d from origin)\n", s.HitRate, s.Hits, res.OriginResolved)
	fmt.Printf("hops/request   %.3f\n", s.Hops)
	fmt.Printf("path length    %.3f proxies\n", s.PathLen)
	fmt.Printf("elapsed        %v (%.0f req/s)\n",
		res.Elapsed.Round(1e6), float64(s.Requests)/res.Elapsed.Seconds())
	if ccfg.Faults != nil || ccfg.Recovery.Enabled {
		fmt.Printf("completion     %.4f (%d of %d injected)\n", res.Completion, s.Requests, res.Injected)
		fmt.Printf("faults         dropped=%d crashes=%d restarts=%d\n", res.Dropped, res.Faults.Crashes, res.Faults.Restarts)
		fmt.Printf("recovery       timeouts=%d retries=%d abandoned=%d stale-replies=%d leaked-pending=%d\n",
			s.Timeouts, s.Retries, s.Abandoned, s.StaleReplies, res.LeakedPending)
	} else {
		// Without fault injection these must both be zero; a nonzero value
		// means protocol state leaked and should never hide behind -v.
		var unexpected uint64
		for _, ps := range res.ProxyStats {
			unexpected += ps.UnexpectedReplies
		}
		if res.LeakedPending > 0 || unexpected > 0 {
			fmt.Printf("WARNING        leaked-pending=%d unexpected-replies=%d (protocol state leaked; -v for per-proxy detail)\n",
				res.LeakedPending, unexpected)
		}
	}
	if verbose {
		return printProxyStats(res.ProxyStats)
	}
	return nil
}

// source opens the run's request stream: a binary trace, a Squid log, or
// the generator wcfg describes.
func source(replayPath, squidPath string, wcfg workload.Config, log *clilog.Logger) (workload.Source, error) {
	switch {
	case replayPath != "":
		loaded, err := adc.LoadTraceFile(replayPath)
		if err != nil {
			return nil, err
		}
		return replaySource{loaded}, nil
	case squidPath != "":
		f, err := os.Open(squidPath)
		if err != nil {
			return nil, err
		}
		defer f.Close() //nolint:errcheck // read-only file
		src, st, err := trace.ParseSquidLog(f)
		if err != nil {
			return nil, err
		}
		log.Infof("parsed %d requests (%d distinct URLs, %d malformed lines skipped) from %s",
			st.Requests, st.Distinct, st.Malformed, squidPath)
		return src, nil
	}
	gen, err := workload.New(wcfg)
	if err != nil {
		return nil, err
	}
	return gen, nil
}

// writeTrace writes src to path as a binary trace, then reads the file back
// and prints its statistics: the phases and hot population of a generated
// stream, and for any stream its length, distinct and one-timer objects,
// recurring share (the warm-cache ceiling) and popularity concentration.
func writeTrace(path string, src workload.Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Write(f, src); err != nil {
		f.Close() //nolint:errcheck,gosec // write error takes precedence
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	written, err := adc.LoadTraceFile(path)
	if err != nil {
		return err
	}
	st := workload.Analyze(replaySource{written})
	fmt.Printf("wrote %d requests to %s\n", st.Requests, path)
	if gen, ok := src.(*workload.Generator); ok {
		fillEnd, phase2End := gen.Boundaries()
		fmt.Printf("phases            fill [0,%d)  request-I [%d,%d)  request-II [%d,%d)\n",
			fillEnd, fillEnd, phase2End, phase2End, st.Requests)
		fmt.Printf("hot population    %d\n", gen.Population())
	}
	fmt.Printf("distinct objects  %d\n", st.Distinct)
	fmt.Printf("one-timer objects %d (%.1f%% of objects)\n",
		st.OneTimers, 100*float64(st.OneTimers)/float64(st.Distinct))
	fmt.Printf("recurring traffic %.1f%% of requests (warm-cache ceiling)\n", 100*st.RecurringShare)
	fmt.Printf("hottest object    %d requests\n", st.MaxObjectRequests)
	fmt.Printf("top 1%% objects    %.1f%% of requests\n", 100*st.Top1Share)
	fmt.Printf("top 10%% objects   %.1f%% of requests\n", 100*st.Top10Share)
	return nil
}

// replaySource adapts a trace the facade's loader read — which refuses a
// file holding fewer requests than its header declares — to the cluster.
type replaySource struct{ adc.Source }

func (r replaySource) Next() (ids.ObjectID, bool) {
	obj, ok := r.Source.Next()
	return ids.ObjectID(obj), ok
}

// writeTraceFile checks a recorded trace against the event schema and
// writes it as a span dump (adc.WriteTrace).
func writeTraceFile(path string, t *obs.Tracer) error {
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
func writeBuckets(path string, buckets []metrics.Bucket, log *clilog.Logger) error {
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
			b.HitRate(), b.MeanHops(), b.MeanGap(),
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

func printProxyStats(stats []metrics.ProxyStats) error {
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

// fileFlags names the flags a -config file replaces: the experiment the
// file describes.
var fileFlags = []string{"algo", "alpha", "backend", "caching", "entry", "faults", "maxhops", "multiple", "onetimers", "population", "proxies", "recovery", "requests", "runtime", "seed", "single"}

// syntheticFlags describe the generated workload, which a recorded source
// (-replay, -from-squid) replaces.
var syntheticFlags = []string{"alpha", "onetimers", "population", "requests"}

// writeReads names the flags -write-trace reads: the workload's, and the
// file that may describe it instead. Writing a Squid log's requests reads
// neither.
var writeReads = []string{"write-trace", "from-squid", "config", "seed", "alpha", "onetimers", "population", "requests"}

// dumpRefuses names the flags a -dump run cannot honour: it runs the
// sequential runtime over a generated workload, untraced and lossless, as
// the flags (not a file) describe it.
var dumpRefuses = []string{"config", "faults", "from-squid", "metrics-every", "metrics-out", "recovery", "replay", "runtime", "trace"}

// refuseUnread fails, naming the flag, if a flag was set that the selected
// mode (-write-trace, -dump) or recorded source (-replay, -from-squid) does
// not read. -config's refusals follow: the modes may refuse -config itself.
func refuseUnread(fs *flag.FlagSet, write, replay, squid, dump bool) error {
	reads := writeReads
	if squid {
		reads = writeReads[:2]
	}
	var unwritten []string
	fs.VisitAll(func(f *flag.Flag) {
		if !slices.Contains(reads, f.Name) {
			unwritten = append(unwritten, f.Name)
		}
	})
	for _, c := range []struct {
		on    bool
		mode  string
		names []string
	}{
		{write, "-write-trace", unwritten},
		{dump, "-dump", dumpRefuses},
		{replay, "-replay", append([]string{"from-squid"}, syntheticFlags...)},
		{squid, "-from-squid", syntheticFlags},
	} {
		if !c.on {
			continue
		}
		if err := clilog.Refuse(fs, "is not read with "+c.mode, c.names...); err != nil {
			return err
		}
	}
	return nil
}

// dumpTables renders a finished ADC run's proxy tables in the layout of
// the paper's sample figures (Figs. 1–3).
func dumpTables(cl *cluster.Cluster, res *cluster.Result, proxyIdx int) error {
	fmt.Printf("hit rate %.4f, hops %.3f over %d requests\n\n",
		res.Summary.HitRate, res.Summary.Hops, res.Summary.Requests)

	p := cl.ADCProxies()[proxyIdx]
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
