// Command adcsweep runs the paper's parameter-sensitivity study (§V.3):
// each mapping table swept over the 5k–30k grid (scaled) with the other
// two held at reference size, reporting hit rate (Fig. 13), hops
// (Fig. 14) or wall-clock processing time (Fig. 15).
//
// Examples:
//
//	adcsweep                         # hits + hops sweep at 1/10 scale
//	adcsweep -metric time            # Fig. 15 on the paper-faithful O(n) tables
//	adcsweep -scale 1 -metric hits   # full paper scale
//	adcsweep -csv out.csv            # machine-readable output
//	adcsweep -metric resilience      # hit rate & completion vs message loss
//	adcsweep -metric convergence     # location-convergence time vs cache size
//	adcsweep -metric loadspread      # load imbalance ± hot-object replication
//
// Reports go to stdout; progress and notices go to stderr (so piped CSV
// stays clean). -quiet silences stderr entirely; -v adds debug detail.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/adc-sim/adc"
	"github.com/adc-sim/adc/internal/clilog"
	"github.com/adc-sim/adc/internal/profiling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adcsweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adcsweep", flag.ContinueOnError)
	var (
		scale      = fs.Float64("scale", 0.1, "scale of the paper's setup (1.0 = 3.99M requests)")
		seed       = fs.Int64("seed", 1, "random seed")
		proxies    = fs.Int("proxies", 5, "number of proxies")
		metric     = fs.String("metric", "hits", "metric: hits, hops, time, resilience, convergence or loadspread")
		losses     = fs.String("losses", "", "resilience loss rates, comma-separated (default 0,0.005,0.01,0.02,0.05)")
		recovery   = fs.String("recovery", "", "resilience recovery parameters, e.g. 'timeout=400000,retries=8' (empty = defaults)")
		backend    = fs.String("backend", "", "ordered-table backend: btree (default), slice or list")
		csvPath    = fs.String("csv", "", "also write CSV to this file")
		parallel   = fs.Int("parallel", runtime.NumCPU(), "concurrent simulations (1 = sequential; use 1 for -metric time)")
		shards     = fs.Int("shards", 0, "run each simulation on the virtual-time engine with this many shards (0 = default runtime; results are identical; not for -metric time)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file")
		verbose    = fs.Bool("v", false, "verbose stderr logging")
		quiet      = fs.Bool("quiet", false, "silence stderr progress and notices")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log := clilog.FromFlags(*verbose, *quiet)
	switch *metric {
	case "hits", "hops", "time", "resilience", "convergence", "loadspread":
	default:
		return fmt.Errorf("unknown metric %q (want hits, hops, time, resilience, convergence or loadspread)", *metric)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be non-negative, got %d", *shards)
	}
	if *shards > 0 && *metric == "time" {
		// Fig. 15 measures the sequential engine's wall clock; running it
		// sharded would time a different machine.
		return fmt.Errorf("-shards does not apply to -metric time")
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}

	profile := adc.Profile{
		Scale: *scale, Seed: *seed, Proxies: *proxies, Parallel: *parallel,
		Backend: adc.TableBackend(*backend), Shards: *shards,
	}
	profile.Progress = progressLine(log)

	switch *metric {
	case "resilience":
		if err := runResilience(profile, *losses, *recovery, *csvPath, log); err != nil {
			return err
		}
		return stopProfiles()
	case "convergence":
		if err := runConvergence(profile, *csvPath, log); err != nil {
			return err
		}
		return stopProfiles()
	case "loadspread":
		if err := runLoadSpread(profile, *csvPath, log); err != nil {
			return err
		}
		return stopProfiles()
	}

	var pts []adc.SweepPoint
	if *metric == "time" {
		log.Infof("running Fig. 15 timing sweep on paper-faithful O(n) tables; this is deliberately slow…")
		pts, err = adc.TimingSweep(profile)
	} else {
		pts, err = adc.Sweep(profile)
	}
	log.EndProgress()
	if err != nil {
		return err
	}
	if err := stopProfiles(); err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	switch *metric {
	case "hits":
		fmt.Fprintln(w, "table\tsize\thit rate (post-fill)")
		for _, pt := range pts {
			fmt.Fprintf(w, "%s\t%d\t%.4f\n", pt.Table, pt.Size, pt.HitRate)
		}
	case "hops":
		fmt.Fprintln(w, "table\tsize\thops/request (post-fill)")
		for _, pt := range pts {
			fmt.Fprintf(w, "%s\t%d\t%.3f\n", pt.Table, pt.Size, pt.Hops)
		}
	case "time":
		fmt.Fprintln(w, "table\tsize\tprocessing time")
		for _, pt := range pts {
			fmt.Fprintf(w, "%s\t%d\t%v\n", pt.Table, pt.Size, pt.Elapsed.Round(1e6))
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck // close error checked below
		fmt.Fprintln(f, "table,size,hit_rate,hops,elapsed_ms")
		for _, pt := range pts {
			fmt.Fprintf(f, "%s,%d,%.6f,%.4f,%.1f\n",
				pt.Table, pt.Size, pt.HitRate, pt.Hops,
				float64(pt.Elapsed.Microseconds())/1000)
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Infof("wrote %s", *csvPath)
	}
	return nil
}

// runResilience runs the message-loss study: hit rate and completion vs
// loss rate, with and without the recovery protocol.
func runResilience(profile adc.Profile, lossList, recoverySpec, csvPath string, log *clilog.Logger) error {
	var rates []float64
	if lossList != "" {
		for _, s := range strings.Split(lossList, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad loss rate %q: %w", s, err)
			}
			rates = append(rates, r)
		}
	}
	rec, err := adc.ParseRecoverySpec(recoverySpec)
	if err != nil {
		return err
	}
	pts, err := adc.LossSweep(profile, rates, rec)
	log.EndProgress()
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "loss\trecovery\thit rate\tcompletion\tdropped\tretries\tabandoned\tleaked pending")
	for _, pt := range pts {
		fmt.Fprintf(w, "%.3f\t%v\t%.4f\t%.4f\t%d\t%d\t%d\t%d\n",
			pt.Loss, pt.Recovery, pt.HitRate, pt.Completion,
			pt.Dropped, pt.Retries, pt.Abandoned, pt.LeakedPending)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck // close error checked below
		fmt.Fprintln(f, "loss,recovery,hit_rate,completion,mean_response,dropped,timeouts,retries,abandoned,leaked_pending")
		for _, pt := range pts {
			fmt.Fprintf(f, "%.4f,%v,%.6f,%.6f,%.1f,%d,%d,%d,%d,%d\n",
				pt.Loss, pt.Recovery, pt.HitRate, pt.Completion, pt.MeanResponse,
				pt.Dropped, pt.Timeouts, pt.Retries, pt.Abandoned, pt.LeakedPending)
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Infof("wrote %s", csvPath)
	}
	return nil
}

// runConvergence runs the location-convergence study: how fast proxies
// reach lasting agreement on object locations, vs caching-table size.
func runConvergence(profile adc.Profile, csvPath string, log *clilog.Logger) error {
	pts, err := adc.ConvergenceSweep(profile, nil)
	log.EndProgress()
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "caching size\tobjects\tconverged\tmean time (ticks)\tmax time (ticks)\thit rate")
	for _, pt := range pts {
		fmt.Fprintf(w, "%d\t%d\t%d\t%.0f\t%d\t%.4f\n",
			pt.Size, pt.Objects, pt.Converged, pt.MeanTime, pt.MaxTime, pt.HitRate)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck // close error checked below
		fmt.Fprintln(f, "caching_size,objects,converged,mean_time_ticks,max_time_ticks,hit_rate")
		for _, pt := range pts {
			fmt.Fprintf(f, "%d,%d,%d,%.1f,%d,%.6f\n",
				pt.Size, pt.Objects, pt.Converged, pt.MeanTime, pt.MaxTime, pt.HitRate)
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Infof("wrote %s", csvPath)
	}
	return nil
}

// runLoadSpread runs the load-imbalance study: per-proxy load spread with
// and without hot-object replication, against the hashing baselines, on an
// open-loop shifting-Zipf stream. "mw share" / "mw peak" are the mean
// windowed max/mean reception share and the mean hottest-proxy receptions
// per window (warmup skipped) — the statistics where the transient
// post-shift hotspot is visible; max/mean and gini are run totals.
func runLoadSpread(profile adc.Profile, csvPath string, log *clilog.Logger) error {
	pts, err := adc.ReplicationSweep(profile, adc.ReplicationOptions{})
	log.EndProgress()
	if err != nil {
		return err
	}

	label := func(pt adc.ReplicationPoint) string {
		if !pt.Replicated {
			return pt.Algorithm
		}
		return fmt.Sprintf("%s t=%d r=%d", pt.Algorithm, pt.HotThreshold, pt.MaxReplicas)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "config\thit rate\tp99 (ticks)\tmw share\tmw peak\tmax/mean\tgini\tcached\tpushes\tdrops\trep hits")
	for _, pt := range pts {
		fmt.Fprintf(w, "%s\t%.4f\t%.0f\t%.4f\t%.1f\t%.4f\t%.4f\t%d\t%d\t%d\t%d\n",
			label(pt), pt.HitRate, pt.P99Response,
			pt.MeanWindowShare, pt.MeanWindowPeak, pt.MaxMeanShare, pt.GiniShare,
			pt.CachedEntries, pt.ReplicaPushes, pt.ReplicaDrops, pt.ReplicaHits)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck // close error checked below
		fmt.Fprintln(f, "algorithm,replicated,hot_threshold,max_replicas,hit_rate,p99_ticks,mean_response,mw_share,mw_peak,max_mean_share,gini,cached_entries,pushes,drops,replica_hits")
		for _, pt := range pts {
			fmt.Fprintf(f, "%s,%v,%d,%d,%.6f,%.1f,%.1f,%.6f,%.2f,%.6f,%.6f,%d,%d,%d,%d\n",
				pt.Algorithm, pt.Replicated, pt.HotThreshold, pt.MaxReplicas,
				pt.HitRate, pt.P99Response, pt.MeanResponse,
				pt.MeanWindowShare, pt.MeanWindowPeak, pt.MaxMeanShare, pt.GiniShare,
				pt.CachedEntries, pt.ReplicaPushes, pt.ReplicaDrops, pt.ReplicaHits)
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Infof("wrote %s", csvPath)
	}
	return nil
}

// progressLine returns a Profile.Progress callback that rewrites one
// carriage-returned status line with run counts, the resolved pool width
// and engine throughput. The logger suppresses it under -quiet and keeps
// it off stdout always.
func progressLine(log *clilog.Logger) func(adc.Progress) {
	start := time.Now()
	return func(p adc.Progress) {
		elapsed := time.Since(start).Seconds()
		line := fmt.Sprintf("run %d/%d  %d workers  %.1f runs/s",
			p.Done, p.Total, p.Workers, float64(p.Done)/elapsed)
		if p.Events > 0 {
			line += fmt.Sprintf("  %.1fM events/s", float64(p.Events)/elapsed/1e6)
		}
		log.Progressf("%s  %s elapsed", line, time.Since(start).Round(time.Second))
	}
}
