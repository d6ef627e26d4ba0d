// Package experiments reproduces every figure of the paper's evaluation
// (§V): the ADC-vs-hashing hit-rate and hops time series (Figs. 11–12),
// the table-size sensitivity sweeps (Figs. 13–14), the processing-time
// sweep (Fig. 15), and the extension studies the paper lists as future
// work (max-hops bound, selective-caching and aging ablations, consistent
// hashing, ordered-table backends).
//
// All experiments run off a Profile whose Scale knob shrinks the paper's
// reference setup proportionally: Scale 1.0 is the paper's 3.99 M-request
// trace against 5 proxies with 20k/20k/10k tables; the default Scale 0.1
// reproduces every curve's shape in seconds on a laptop. EXPERIMENTS.md
// records a paper-vs-measured comparison for each figure.
package experiments

import (
	"fmt"
	"math"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/workload"
)

// Paper-scale reference constants (§V.2: "20k entries for the single and
// the multiple-table and 10k entries for the caching table in each of the
// 5 running proxies", ≈3.99 M requests). The hot-population constant is
// the calibrated substitution for PolyMix-4's working set (DESIGN.md §3):
// at these proportions both algorithms plateau near the paper's 0.7 hit
// rate with ADC marginally ahead, matching Fig. 11.
const (
	paperRequests     = 3_990_000
	paperSingleSize   = 20_000
	paperMultipleSize = 20_000
	paperCachingSize  = 10_000
	paperPopulation   = 10_000
	paperProxies      = 5
)

// Profile parameterises one experiment campaign.
type Profile struct {
	// Scale shrinks the paper's reference setup proportionally.
	// 1.0 = full paper scale; default 0.1.
	Scale float64
	// Proxies is the array size (paper: 5).
	Proxies int
	// Seed drives every random stream of the campaign.
	Seed int64
	// Window is the hit-rate moving-average window (paper: 5000).
	Window int
	// EntryPolicy selects how clients pick their entry proxy.
	EntryPolicy sim.EntryPolicy
	// Backend selects the ordered-table backend for non-timing
	// experiments (timing experiments force the paper-faithful ones).
	Backend core.Backend
	// Shards, when positive, runs each simulation on the virtual-time
	// engine with that many worker shards instead of the sequential
	// runtime. Results are byte-identical either way; the knob exists so
	// large sweeps can exploit multiple cores inside a single simulation
	// rather than only across simulations. It reaches every experiment,
	// including the ones that need faults, recovery or tracing.
	Shards int
	// Parallelism bounds how many independent simulations an experiment
	// runs concurrently. 0 means GOMAXPROCS; 1 forces the sequential
	// path. Whatever the width, results are bit-identical: every run is
	// seeded exactly as in the sequential path and results are slotted
	// by index, not arrival order. Only wall-clock timing fields
	// (SweepPoint.Elapsed, BackendPoint.Elapsed) are perturbed by
	// concurrent execution; run timing studies with Parallelism 1 when
	// their absolute values matter.
	Parallelism int
	// Progress, when non-nil, is called after each completed simulation
	// of a fan-out. Calls are serialized and Done is monotonic.
	Progress func(info ProgressInfo)
}

// ProgressInfo is the state of a running fan-out after one more completed
// simulation.
type ProgressInfo struct {
	// Done counts completed simulations; Total is the fan-out size.
	Done, Total int
	// Workers is the resolved worker-pool width for this fan-out (the
	// Parallelism knob after defaulting and clamping).
	Workers int
	// Events is the cumulative number of engine message deliveries across
	// all completed simulations; divided by elapsed wall-clock it yields
	// the engine's events/sec throughput. Zero for runs on the concurrent
	// runtimes, which do not track a global delivery counter.
	Events uint64
}

// DefaultProfile returns the standard laptop-scale campaign.
func DefaultProfile() Profile {
	return Profile{Scale: 0.1, Proxies: paperProxies, Seed: 1, Window: 5000}
}

// PaperProfile returns the full-scale campaign matching the paper.
func PaperProfile() Profile {
	p := DefaultProfile()
	p.Scale = 1.0
	return p
}

// Validate reports the first profile error.
func (p Profile) Validate() error {
	if p.Scale <= 0 || p.Scale > 4 {
		return fmt.Errorf("experiments: scale must be in (0,4], got %v", p.Scale)
	}
	if p.Proxies <= 0 {
		return fmt.Errorf("experiments: proxies must be positive, got %d", p.Proxies)
	}
	if p.Window <= 0 {
		return fmt.Errorf("experiments: window must be positive, got %d", p.Window)
	}
	return nil
}

// scaled rounds n·Scale up to at least 1.
func (p Profile) scaled(n int) int {
	v := int(math.Round(float64(n) * p.Scale))
	if v < 1 {
		v = 1
	}
	return v
}

// Requests returns the scaled trace length.
func (p Profile) Requests() int { return p.scaled(paperRequests) }

// Tables returns the scaled reference table configuration.
func (p Profile) Tables() core.Config {
	return core.Config{
		SingleSize:   p.scaled(paperSingleSize),
		MultipleSize: p.scaled(paperMultipleSize),
		CachingSize:  p.scaled(paperCachingSize),
		Backend:      p.Backend,
	}
}

// WorkloadConfig returns the scaled synthetic PolyMix-like workload.
func (p Profile) WorkloadConfig() workload.Config {
	cfg := workload.DefaultConfig(p.Requests())
	cfg.PopulationSize = p.scaled(paperPopulation)
	cfg.Seed = p.Seed
	return cfg
}

// NewWorkload builds the profile's workload generator.
func (p Profile) NewWorkload() (*workload.Generator, error) {
	return workload.New(p.WorkloadConfig())
}

// traceCache shares materialized request streams across all experiments in
// the process: a figure campaign runs dozens of simulations over a handful
// of distinct workload configs, so each stream is generated once and
// replayed through cursors. Four entries cover the default campaign (the
// reference trace plus the shorter timing/backend traces) while bounding
// memory at full paper scale (~32 MB per 3.99 M-request trace).
var traceCache = workload.NewTraceCache(4)

// PurgeTraceCache drops every materialized trace, releasing memory between
// campaigns.
func PurgeTraceCache() { traceCache.Purge() }

// trace returns the profile's materialized reference workload.
func (p Profile) trace() (*workload.Trace, error) {
	return traceCache.Get(p.WorkloadConfig())
}

// traceFor materializes (or re-uses) the stream for an explicit workload
// config, for experiments that override the reference trace length.
func (p Profile) traceFor(cfg workload.Config) (*workload.Trace, error) {
	return traceCache.Get(cfg)
}

// ClusterConfig assembles the cluster configuration for one run. With
// Shards > 0 the run uses the virtual-time engine on that many shards.
func (p Profile) ClusterConfig(algo cluster.Algorithm, tables core.Config, sampleEvery uint64) cluster.Config {
	cfg := cluster.Config{
		Algorithm:   algo,
		NumProxies:  p.Proxies,
		Tables:      tables,
		Seed:        p.Seed,
		EntryPolicy: p.EntryPolicy,
		Window:      p.Window,
		SampleEvery: sampleEvery,
	}
	if p.Shards > 0 {
		cfg.Runtime = cluster.RuntimeVirtualTime
		cfg.Shards = p.Shards
	}
	return cfg
}

// run executes one simulation with a cursor over the profile's shared
// materialized workload.
func (p Profile) run(cfg cluster.Config) (*cluster.Result, error) {
	tr, err := p.trace()
	if err != nil {
		return nil, err
	}
	return cluster.Run(cfg, tr.Cursor())
}
