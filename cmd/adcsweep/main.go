// Command adcsweep runs the paper's evaluation (§V) and the extension
// studies, one study per -metric value: Figs. 11–12 (compare), the §V.3
// table-size sweep (hits, hops, time: Figs. 13–15), the extensions the
// paper exposes but never sweeps, and the resilience, convergence and
// load-spread studies. -metric figures runs every figure and extension
// study in one go; with -out figures it regenerates the committed CSVs.
//
// Examples:
//
//	adcsweep                                # Fig. 13 at 1/10 scale
//	adcsweep -metric figures -out figures   # every figure and extension
//	adcsweep -metric time                   # Fig. 15 on the paper-faithful O(n) tables
//	adcsweep -scale 1 -metric hits          # full paper scale
//	adcsweep -metric hops -out results      # Fig. 14 as a chart and a CSV
//	adcsweep -metric resilience             # hit rate & completion vs message loss, then a crash/restart
//	adcsweep -metric convergence            # location-convergence time vs cache size
//	adcsweep -metric loadspread             # load imbalance ± hot-object replication
//
// Reports, tables and charts go to stdout; progress and notices go to
// stderr. -quiet silences stderr entirely; -v adds debug detail. Each study
// writes its CSVs under -out with the fixed names in studies, and a flag
// the selected study does not read is refused by name.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/adc-sim/adc/internal/clilog"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/experiments"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/plot"
	"github.com/adc-sim/adc/internal/profiling"
	"github.com/adc-sim/adc/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adcsweep:", err)
		os.Exit(1)
	}
}

// study is one -metric value.
type study struct {
	name    string
	title   string
	figure  bool     // part of -metric figures
	csv     []string // the files it writes under -out
	ignores []string // flags it does not read, besides -out when csv is empty
	run     func(a *app, csv []string) error
}

// lossFlags configure the resilience study only.
var lossFlags = []string{"losses", "recovery"}

// studies in the order -metric figures runs its members.
var studies = []study{
	{name: "compare", title: "Figures 11 & 12: ADC vs Hashing (hit rate, hops)", figure: true,
		csv: []string{"figure11_hitrate.csv", "figure12_hops.csv"}, ignores: lossFlags, run: (*app).compare},
	{name: "hits", title: "Figure 13: hit rate by table size", figure: true,
		csv: []string{"figure13_hits_by_size.csv"}, ignores: lossFlags, run: hitsBySize.run},
	{name: "hops", title: "Figure 14: hops by table size", figure: true,
		csv: []string{"figure14_hops_by_size.csv"}, ignores: lossFlags, run: hopsBySize.run},
	// Fig. 15 times sequential (zero-cost) runs on the paper's O(n) list tables;
	// another backend would time a different machine.
	{name: "time", title: "Figure 15: processing time by table size (paper-faithful O(n) tables)", figure: true,
		csv: []string{"figure15_time_by_size.csv"}, ignores: append([]string{"backend"}, lossFlags...), run: timeBySize.run},
	{name: "maxhops", title: "Extension: max-hops bound", figure: true,
		csv: []string{"ext_maxhops.csv"}, ignores: lossFlags, run: (*app).maxHops},
	{name: "ablations", title: "Extension: selective-caching and aging ablations", figure: true,
		ignores: lossFlags, run: (*app).ablations},
	{name: "backends", title: "Extension: ordered-table backends", figure: true,
		ignores: append([]string{"backend"}, lossFlags...), run: (*app).backends},
	{name: "response", title: "Extension: response time", figure: true,
		ignores: lossFlags, run: (*app).response},
	{name: "prelearned", title: "Extension: pre-learned replay", figure: true,
		ignores: lossFlags, run: (*app).preLearned},
	{name: "proxycount", title: "Extension: proxy count", figure: true,
		ignores: lossFlags, run: (*app).proxyCount},
	{name: "baselines", title: "Extension: all baselines", figure: true,
		ignores: lossFlags, run: (*app).baselines},
	{name: "resilience", title: "Resilience: hit rate and completion vs message loss",
		csv: []string{"resilience.csv"}, run: (*app).resilience},
	{name: "convergence", title: "Convergence: location-convergence time vs caching-table size",
		csv: []string{"convergence.csv"}, ignores: lossFlags, run: (*app).convergence},
	{name: "loadspread", title: "Load spread: imbalance with and without hot-object replication",
		csv: []string{"loadspread.csv"}, ignores: lossFlags, run: (*app).loadSpread},
}

// app is what every study reads: the profile the flags build, -out, the
// resilience flags, the logger, and the table-size sweep once one study
// has run it (Figs. 13 and 14 share it).
type app struct {
	profile  experiments.Profile
	out      string
	losses   string
	recovery string
	log      *clilog.Logger
	sweep    []experiments.SweepPoint
}

func run(args []string) error {
	fs := flag.NewFlagSet("adcsweep", flag.ContinueOnError)
	var (
		scale      = fs.Float64("scale", 0.1, "scale of the paper's setup (1.0 = 3.99M requests)")
		seed       = fs.Int64("seed", 1, "random seed")
		proxies    = fs.Int("proxies", 5, "number of proxies")
		metric     = fs.String("metric", "hits", "study: "+metricNames())
		losses     = fs.String("losses", "", "resilience loss rates, comma-separated (default 0,0.005,0.01,0.02,0.05)")
		recovery   = fs.String("recovery", "", "resilience recovery parameters, e.g. 'timeout=400000,retries=8' (empty = defaults)")
		backend    = fs.String("backend", "", "ordered-table backend: btree (default, a binary max-heap) or list")
		out        = fs.String("out", "", "write each study's CSVs into this directory, under fixed names")
		parallel   = fs.Int("parallel", runtime.NumCPU(), "concurrent simulations (1 = sequential; use 1 for -metric time)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file")
		verbose    = fs.Bool("v", false, "verbose stderr logging")
		quiet      = fs.Bool("quiet", false, "silence stderr progress and notices")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var selected []study
	for _, s := range studies {
		if s.name == *metric || *metric == "figures" && s.figure {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown metric %q (want %s)", *metric, metricNames())
	}
	if err := clilog.Refuse(fs, "is not read by -metric "+*metric, ignored(selected)...); err != nil {
		return err
	}
	log := clilog.FromFlags(*verbose, *quiet)
	p := experiments.DefaultProfile()
	p.Scale, p.Seed, p.Proxies, p.Parallelism = *scale, *seed, *proxies, *parallel
	p.Progress = progressLine(log)
	var err error
	if p.Backend, err = core.ParseBackend(*backend); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	a := &app{profile: p, out: *out, losses: *losses, recovery: *recovery, log: log}
	for _, s := range selected {
		fmt.Printf("=== %s ===\n", s.title)
		err := s.run(a, s.csv)
		log.EndProgress()
		if err != nil {
			return err
		}
	}
	return stopProfiles()
}

// metricNames lists the -metric values.
func metricNames() string {
	var names []string
	for _, s := range studies {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ") + " or figures (every figure and extension study)"
}

// ignored names the flags to refuse for a selection: any flag one of its
// studies does not read, since it would reach only part of a set, and -out
// when none of them writes a CSV.
func ignored(selected []study) []string {
	var names []string
	csv := false
	for _, s := range selected {
		names = append(names, s.ignores...)
		csv = csv || len(s.csv) > 0
	}
	if !csv {
		names = append(names, "out")
	}
	return names
}

// progressLine returns a Profile.Progress callback that rewrites one
// carriage-returned status line per fan-out with run counts, the resolved
// pool width and engine throughput. The logger suppresses it under -quiet
// and keeps it off stdout always.
func progressLine(log *clilog.Logger) func(experiments.ProgressInfo) {
	start := time.Now()
	return func(p experiments.ProgressInfo) {
		elapsed := time.Since(start).Seconds()
		line := fmt.Sprintf("run %d/%d  %d workers  %.1f runs/s",
			p.Done, p.Total, p.Workers, float64(p.Done)/elapsed)
		if p.Events > 0 {
			line += fmt.Sprintf("  %.1fM events/s", float64(p.Events)/elapsed/1e6)
		}
		log.Progressf("%s  %s elapsed", line, time.Since(start).Round(time.Second))
		if p.Done == p.Total {
			log.EndProgress()
			start = time.Now()
		}
	}
}

// writeCSV writes one file under -out, and nothing without -out.
func (a *app) writeCSV(name string, write func(io.Writer) error) error {
	if a.out == "" {
		return nil
	}
	if err := os.MkdirAll(a.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(a.out, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close() //nolint:errcheck,gosec // the write error takes precedence
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	a.log.Infof("wrote %s", path)
	return nil
}

// writeSeries writes series as a plot.WriteCSV file under -out.
func (a *app) writeSeries(name, xLabel string, series ...plot.Series) error {
	return a.writeCSV(name, func(w io.Writer) error { return plot.WriteCSV(w, xLabel, series...) })
}

// chart prints series as an ASCII line chart.
func chart(title string, height int, series ...plot.Series) {
	fmt.Println(plot.RenderASCII(title, 72, height, series...))
}

func (a *app) compare(csv []string) error {
	cmp, err := experiments.Compare(a.profile, experiments.CompareOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("phases: fill ends at %d requests, phase II starts at %d\n",
		cmp.FillEnd, cmp.Phase2End)
	fmt.Printf("cumulative: ADC hit %.3f / hops %.2f — hashing hit %.3f / hops %.2f\n\n",
		cmp.ADCSummary.HitRate, cmp.ADCSummary.Hops, cmp.HashingSummary.HitRate, cmp.HashingSummary.Hops)

	series := func(name string, pts []metrics.Point, y func(metrics.Point) float64) plot.Series {
		s := plot.Series{Name: name}
		for _, p := range pts {
			s.X = append(s.X, float64(p.Requests))
			s.Y = append(s.Y, y(p))
		}
		return s
	}
	hit := func(p metrics.Point) float64 { return p.HitRate }
	hops := func(p metrics.Point) float64 { return p.Hops }

	adcHit, hashHit := series("ADC", cmp.ADC, hit), series("Hashing", cmp.Hashing, hit)
	chart("Figure 11: hit rate (moving average) vs requests", 16, adcHit, hashHit)
	if err := a.writeSeries(csv[0], "requests", adcHit, hashHit); err != nil {
		return err
	}
	adcHops, hashHops := series("ADC", cmp.ADC, hops), series("Hashing", cmp.Hashing, hops)
	chart("Figure 12: hops (moving average) vs requests", 16, adcHops, hashHops)
	return a.writeSeries(csv[1], "requests", adcHops, hashHops)
}

// bySize is one of Figs. 13–15: one value of a table-size sweep, printed
// as a table and a chart and written with one column per table.
type bySize struct {
	points func(*app) ([]experiments.SweepPoint, error)
	column string // the table's value heading
	cell   func(experiments.SweepPoint) string
	y      func(experiments.SweepPoint) float64
	chart  string
}

var (
	hitsBySize = bySize{
		points: (*app).sizeSweep,
		column: "hit rate (post-fill)",
		cell:   func(p experiments.SweepPoint) string { return fmt.Sprintf("%.4f", p.HitRate) },
		y:      func(p experiments.SweepPoint) float64 { return p.HitRate },
		chart:  "Figure 13: hit rate by table size",
	}
	hopsBySize = bySize{
		points: (*app).sizeSweep,
		column: "hops/request (post-fill)",
		cell:   func(p experiments.SweepPoint) string { return fmt.Sprintf("%.3f", p.Hops) },
		y:      func(p experiments.SweepPoint) float64 { return p.Hops },
		chart:  "Figure 14: hops by table size",
	}
	timeBySize = bySize{
		points: func(a *app) ([]experiments.SweepPoint, error) {
			a.log.Infof("running Fig. 15 timing sweep on paper-faithful O(n) tables; this is deliberately slow…")
			return experiments.Sweep(a.profile, experiments.SweepOptions{PaperFaithfulTiming: true, Requests: 1_000_000})
		},
		column: "processing time",
		cell:   func(p experiments.SweepPoint) string { return p.Elapsed.Round(time.Millisecond).String() },
		y:      func(p experiments.SweepPoint) float64 { return p.Elapsed.Seconds() },
		chart:  "Figure 15: processing time (s) by table size",
	}
)

// sizeSweep runs the table-size sweep once for Figs. 13 and 14.
func (a *app) sizeSweep() ([]experiments.SweepPoint, error) {
	if a.sweep == nil {
		pts, err := experiments.Sweep(a.profile, experiments.SweepOptions{})
		if err != nil {
			return nil, err
		}
		a.sweep = pts
	}
	return a.sweep, nil
}

func (f bySize) run(a *app, csv []string) error {
	pts, err := f.points(a)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "table\tsize\t%s\n", f.column)
	for _, pt := range pts {
		fmt.Fprintf(w, "%s\t%d\t%s\n", pt.Table, pt.Size, f.cell(pt))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var series []plot.Series
	for _, table := range experiments.AllTables() {
		s := plot.Series{Name: string(table)}
		for _, pt := range pts {
			if pt.Table == table {
				s.X = append(s.X, float64(pt.Size))
				s.Y = append(s.Y, f.y(pt))
			}
		}
		if len(s.X) > 0 {
			series = append(series, s)
		}
	}
	fmt.Println()
	chart(f.chart, 14, series...)
	return a.writeSeries(csv[0], "size", series...)
}

func (a *app) maxHops(csv []string) error {
	mh, err := experiments.MaxHopsSweep(a.profile, nil)
	if err != nil {
		return err
	}
	fmt.Println("max-hops bound (0 = unbounded, the paper's setting):")
	s := plot.Series{Name: "hit rate"}
	for _, pt := range mh {
		fmt.Printf("  maxhops=%d  hit=%.4f  hops=%.3f\n", pt.MaxHops, pt.HitRate, pt.Hops)
		bound := float64(pt.MaxHops)
		if pt.MaxHops == 0 {
			bound = 10 // plot the unbounded point to the right
		}
		s.X = append(s.X, bound)
		s.Y = append(s.Y, pt.HitRate)
	}
	return a.writeSeries(csv[0], "maxhops", s)
}

func (a *app) ablations([]string) error {
	sel, err := experiments.SelectiveCachingAblation(a.profile)
	if err != nil {
		return err
	}
	fmt.Printf("selective caching vs cache-all LRU: %.4f vs %.4f (Δ %+.4f)\n",
		sel.Full, sel.Ablated, sel.Full-sel.Ablated)
	ag, err := experiments.AgingAblation(a.profile)
	if err != nil {
		return err
	}
	fmt.Printf("aging on vs off:                    %.4f vs %.4f (Δ %+.4f)\n",
		ag.Full, ag.Ablated, ag.Full-ag.Ablated)
	return nil
}

func (a *app) backends([]string) error {
	be, err := experiments.BackendComparison(a.profile, 1_000_000)
	if err != nil {
		return err
	}
	fmt.Println("ordered-table backends (identical simulation):")
	for _, pt := range be {
		fmt.Printf("  %-14s %v (hit %.4f)\n", pt.Backend, pt.Elapsed.Round(time.Millisecond), pt.HitRate)
	}
	return nil
}

func (a *app) response([]string) error {
	rt, err := experiments.ResponseTime(a.profile, experiments.ResponseOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("response time (WAN latency model): ADC %.1f ms vs hashing %.1f ms\n",
		rt.ADCMean/1000, rt.HashingMean/1000)
	return nil
}

func (a *app) preLearned([]string) error {
	pl, err := experiments.PreLearned(a.profile)
	if err != nil {
		return err
	}
	fmt.Printf("pre-learned replay (§V.2.1 future work): pass 1 hit %.4f → pass 2 hit %.4f\n",
		pl.FirstPass, pl.SecondPass)
	return nil
}

func (a *app) proxyCount([]string) error {
	pc, err := experiments.ProxyCountSweep(a.profile, nil)
	if err != nil {
		return err
	}
	fmt.Println("proxy count (total capacity constant):")
	for _, pt := range pc {
		fmt.Printf("  proxies=%d  hit=%.4f  hops=%.3f\n", pt.Proxies, pt.HitRate, pt.Hops)
	}
	return nil
}

func (a *app) baselines([]string) error {
	base, err := experiments.Baselines(a.profile)
	if err != nil {
		return err
	}
	fmt.Println("all baselines (post-fill hit rate / hops / busiest-node share):")
	for _, pt := range base {
		fmt.Printf("  %-6s hit=%.4f hops=%.3f bottleneck=%.2f\n",
			pt.Algorithm, pt.HitRate, pt.Hops, pt.BottleneckShare)
	}
	return nil
}

// resilience runs the message-loss study: hit rate and completion vs
// loss rate, with and without the recovery protocol.
func (a *app) resilience(csv []string) error {
	var rates []float64
	if a.losses != "" {
		for _, s := range strings.Split(a.losses, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad loss rate %q: %w", s, err)
			}
			rates = append(rates, r)
		}
	}
	rec, err := sim.ParseRecoverySpec(a.recovery)
	if err != nil {
		return err
	}
	sweep, err := experiments.LossSweep(a.profile, rates, rec)
	if err != nil {
		return err
	}
	pts := sweep.Points

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
	if err := crashRecovery(a.profile, rec); err != nil {
		return err
	}
	return a.writeCSV(csv[0], func(f io.Writer) error {
		fmt.Fprintln(f, "loss,recovery,hit_rate,completion,mean_response,dropped,timeouts,retries,abandoned,leaked_pending")
		for _, pt := range pts {
			fmt.Fprintf(f, "%.4f,%v,%.6f,%.6f,%.1f,%d,%d,%d,%d,%d\n",
				pt.Loss, pt.Recovery, pt.HitRate, pt.Completion, pt.MeanResponse,
				pt.Dropped, pt.Timeouts, pt.Retries, pt.Abandoned, pt.LeakedPending)
		}
		return nil
	})
}

// crashRecovery runs the fail-stop study with the resilience study's
// recovery parameters and prints client 0's windowed hit rate before the
// crash, while proxy 0 is down, at the first sample after its cold
// restart and over the rest of the run.
func crashRecovery(p experiments.Profile, rec sim.Recovery) error {
	r, err := experiments.CrashRecovery(p, rec)
	if err != nil {
		return err
	}
	fmt.Printf("\ncrash/restart (proxy 0 down at t=%d, cold restart at t=%d; recovery on):\n", r.CrashAt, r.RestartAt)
	fmt.Printf("  hit rate before / down / first after restart / after: %.4f / %.4f / %.4f / %.4f\n",
		r.BeforeHit, r.DownHit, r.RestartHit, r.AfterHit)
	fmt.Printf("  completion %.5f, dropped %d, leaked pending %d, crashes %d, restarts %d\n",
		r.Completion, r.Dropped, r.LeakedPending, r.Crashes, r.Restarts)
	return nil
}

// convergence runs the location-convergence study: how fast proxies reach
// lasting agreement on object locations, vs caching-table size.
func (a *app) convergence(csv []string) error {
	pts, err := experiments.ConvergenceSweep(a.profile, experiments.ConvergenceOptions{})
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
	return a.writeCSV(csv[0], func(f io.Writer) error {
		fmt.Fprintln(f, "caching_size,objects,converged,mean_time_ticks,max_time_ticks,hit_rate")
		for _, pt := range pts {
			fmt.Fprintf(f, "%d,%d,%d,%.1f,%d,%.6f\n",
				pt.Size, pt.Objects, pt.Converged, pt.MeanTime, pt.MaxTime, pt.HitRate)
		}
		return nil
	})
}

// loadSpread runs the load-imbalance study: per-proxy load spread with and
// without hot-object replication, against the hashing baselines, on an
// open-loop shifting-Zipf stream. "mw share" / "mw peak" are the mean
// windowed max/mean reception share and the mean hottest-proxy receptions
// per window (warmup skipped) — the statistics where the transient
// post-shift hotspot is visible; max/mean and gini are run totals.
func (a *app) loadSpread(csv []string) error {
	pts, err := experiments.ReplicationSweep(a.profile, experiments.ReplicationOptions{})
	if err != nil {
		return err
	}

	label := func(pt experiments.ReplicationPoint) string {
		if !pt.Replicated {
			return pt.Algorithm.String()
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
	return a.writeCSV(csv[0], func(f io.Writer) error {
		fmt.Fprintln(f, "algorithm,replicated,hot_threshold,max_replicas,hit_rate,p99_ticks,mean_response,mw_share,mw_peak,max_mean_share,gini,cached_entries,pushes,drops,replica_hits")
		for _, pt := range pts {
			fmt.Fprintf(f, "%s,%v,%d,%d,%.6f,%.1f,%.1f,%.6f,%.2f,%.6f,%.6f,%d,%d,%d,%d\n",
				pt.Algorithm, pt.Replicated, pt.HotThreshold, pt.MaxReplicas,
				pt.HitRate, pt.P99Response, pt.MeanResponse,
				pt.MeanWindowShare, pt.MeanWindowPeak, pt.MaxMeanShare, pt.GiniShare,
				pt.CachedEntries, pt.ReplicaPushes, pt.ReplicaDrops, pt.ReplicaHits)
		}
		return nil
	})
}
