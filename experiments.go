package adc

import (
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/experiments"
	"github.com/adc-sim/adc/internal/sim"
)

// Profile parameterises an experiment campaign reproducing the paper's
// evaluation. Scale shrinks the reference setup (3.99 M requests, 5
// proxies, 20k/20k/10k tables, 10k hot objects) proportionally; 0.1
// reproduces every curve's shape in seconds.
type Profile struct {
	// Scale of the paper's setup; default 0.1, 1.0 = full paper scale.
	Scale float64
	// Proxies overrides the array size (default 5).
	Proxies int
	// Seed drives all randomness (default 1).
	Seed int64
	// Entry selects the client entry policy (default random).
	Entry EntryPolicy
	// Backend selects the ordered-table implementation (default btree,
	// the binary max-heap).
	// Experiments that sweep backends themselves (TimingSweep,
	// BackendComparison) ignore it.
	Backend TableBackend
	// Parallel bounds how many independent simulations an experiment
	// runs concurrently (default GOMAXPROCS; 1 forces sequential
	// execution). Results are bit-identical at any width — runs are
	// seeded as in the sequential path and slotted by index — except
	// for wall-clock Elapsed fields, which concurrent execution
	// perturbs; use Parallel = 1 for timing studies.
	Parallel int
	// Progress, when non-nil, is called after each completed simulation
	// with the fan-out state so far. Calls are serialized; use it for CLI
	// progress lines.
	Progress func(info Progress)
}

// Progress is the state of a running fan-out after one more completed
// simulation: Done of Total simulations, the resolved worker-pool width
// (Workers) and the cumulative engine deliveries (Events; divide by
// elapsed wall clock for events/sec).
type Progress = experiments.ProgressInfo

func (p Profile) toInternal() (experiments.Profile, error) {
	ip := experiments.DefaultProfile()
	if p.Scale != 0 {
		ip.Scale = p.Scale
	}
	if p.Proxies != 0 {
		ip.Proxies = p.Proxies
	}
	if p.Seed != 0 {
		ip.Seed = p.Seed
	}
	var err error
	if ip.EntryPolicy, err = sim.ParseEntryPolicy(string(p.Entry)); err != nil {
		return ip, err
	}
	if ip.Backend, err = core.ParseBackend(string(p.Backend)); err != nil {
		return ip, err
	}
	ip.Parallelism = p.Parallel
	ip.Progress = p.Progress
	return ip, ip.Validate()
}

// runProfile converts p and hands it to one experiment runner; every
// experiment entry point goes through it.
func runProfile[T any](p Profile, run func(experiments.Profile) (T, error)) (T, error) {
	ip, err := p.toInternal()
	if err != nil {
		var zero T
		return zero, err
	}
	return run(ip)
}

// Comparison is the data behind the paper's Figs. 11 and 12: windowed hit
// rate and hops over the request stream for ADC and the hashing baseline.
type Comparison struct {
	ADC     []Point
	Hashing []Point
	CHash   []Point

	ADCHitRate     float64
	HashingHitRate float64
	ADCHops        float64
	HashingHops    float64

	FillEnd   int
	Phase2End int
}

// Compare reproduces Figs. 11–12: one ADC run and one hashing run over the
// same workload. Set includeCHash to add the consistent-hashing baseline.
func Compare(p Profile, includeCHash bool) (*Comparison, error) {
	cmp, err := runProfile(p, func(ip experiments.Profile) (*experiments.Comparison, error) {
		return experiments.Compare(ip, experiments.CompareOptions{IncludeCHash: includeCHash})
	})
	if err != nil {
		return nil, err
	}
	return &Comparison{
		ADC:            cmp.ADC,
		Hashing:        cmp.Hashing,
		CHash:          cmp.CHash,
		ADCHitRate:     cmp.ADCSummary.HitRate,
		HashingHitRate: cmp.HashingSummary.HitRate,
		ADCHops:        cmp.ADCSummary.Hops,
		HashingHops:    cmp.HashingSummary.Hops,
		FillEnd:        cmp.FillEnd,
		Phase2End:      cmp.Phase2End,
	}, nil
}

// SweepPoint is one run of the table-size parameter study (Figs. 13–15).
type SweepPoint struct {
	// Table is "single", "multiple" or "caching".
	Table string
	// Size is the swept table's capacity.
	Size int
	// HitRate is the post-fill hit rate (the paper's Fig. 13 metric).
	HitRate float64
	// Hops is the post-fill mean hops per request (Fig. 14).
	Hops float64
	// Elapsed is the run's wall-clock duration (Fig. 15).
	Elapsed time.Duration
}

// Sweep reproduces Figs. 13–14: each mapping table swept over the paper's
// 5k–30k grid (scaled) with the other two at reference size.
func Sweep(p Profile) ([]SweepPoint, error) {
	return sweep(p, experiments.SweepOptions{})
}

// TimingSweep reproduces Fig. 15: the same sweep on the paper-faithful
// O(n) data structures, measuring wall-clock time. It uses a shorter trace
// (the paper's structures are deliberately slow).
func TimingSweep(p Profile) ([]SweepPoint, error) {
	return sweep(p, experiments.SweepOptions{
		PaperFaithfulTiming: true,
		Requests:            1_000_000,
	})
}

func sweep(p Profile, opts experiments.SweepOptions) ([]SweepPoint, error) {
	pts, err := runProfile(p, func(ip experiments.Profile) ([]experiments.SweepPoint, error) {
		return experiments.Sweep(ip, opts)
	})
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(pts))
	for i, pt := range pts {
		out[i] = SweepPoint{
			Table:   string(pt.Table),
			Size:    pt.Size,
			HitRate: pt.HitRate,
			Hops:    pt.Hops,
			Elapsed: pt.Elapsed,
		}
	}
	return out, nil
}

// MaxHopsPoint is one run of the forwarding-bound study (an extension: the
// paper exposes the parameter but never sweeps it): the bound, and the
// post-fill hit rate and hops under it.
type MaxHopsPoint = experiments.MaxHopsPoint

// MaxHopsSweep measures hit rate and cost against the forwarding bound;
// bound 0 is the paper's unbounded setting.
func MaxHopsSweep(p Profile, bounds []int) ([]MaxHopsPoint, error) {
	return runProfile(p, func(ip experiments.Profile) ([]MaxHopsPoint, error) {
		return experiments.MaxHopsSweep(ip, bounds)
	})
}

// Ablation compares full ADC against one disabled mechanism; hit rates are
// post-fill.
type Ablation = experiments.AblationResult

// SelectiveCachingAblation quantifies §III.4's claim that selective
// caching beats a cache-everything LRU table.
func SelectiveCachingAblation(p Profile) (*Ablation, error) {
	return runProfile(p, experiments.SelectiveCachingAblation)
}

// AgingAblation quantifies the effect of the Fig. 4 aging rule.
func AgingAblation(p Profile) (*Ablation, error) {
	return runProfile(p, experiments.AgingAblation)
}

// PreLearnedResult is the §V.2.1 future-work experiment: the identical
// trace replayed twice through one uninterrupted cluster. FirstPass and
// SecondPass are each replay's hit rate; the second runs against fully
// learned ("pre-learned") mapping tables.
type PreLearnedResult = experiments.PreLearnedResult

// PreLearned quantifies how much of ADC's Fig. 11 lag is pure learning:
// the second pass of the same trace starts warm and must not lag.
func PreLearned(p Profile) (*PreLearnedResult, error) {
	return runProfile(p, experiments.PreLearned)
}

// ProxyCountPoint is one run of the array-size study: total system cache
// capacity held constant while the proxy count varies.
type ProxyCountPoint = experiments.ProxyCountPoint

// ProxyCountSweep measures the cost of distribution: more, smaller
// proxies mean longer searches for the same total capacity.
func ProxyCountSweep(p Profile, counts []int) ([]ProxyCountPoint, error) {
	return runProfile(p, func(ip experiments.Profile) ([]ProxyCountPoint, error) {
		return experiments.ProxyCountSweep(ip, counts)
	})
}

// BaselinePoint is one scheme's result in the all-baselines comparison.
type BaselinePoint struct {
	// Algorithm is "adc", "carp", "chash", "hier" or "coord".
	Algorithm string
	// HitRate and Hops are post-fill rates.
	HitRate float64
	Hops    float64
	// BottleneckShare is the busiest node's share of all proxy-side
	// requests (≈1/N decentralised, ≈0.5 for the coordinator).
	BottleneckShare float64
}

// Baselines compares every implemented scheme over the same workload:
// ADC, the CARP hashing baseline, consistent hashing, the hierarchical
// tree, and the central coordinator of the authors' earlier work.
func Baselines(p Profile) ([]BaselinePoint, error) {
	pts, err := runProfile(p, experiments.Baselines)
	if err != nil {
		return nil, err
	}
	out := make([]BaselinePoint, len(pts))
	for i, pt := range pts {
		out[i] = BaselinePoint{
			Algorithm:       pt.Algorithm.String(),
			HitRate:         pt.HitRate,
			Hops:            pt.Hops,
			BottleneckShare: pt.BottleneckShare,
		}
	}
	return out, nil
}

// ResponseResult compares mean virtual-time response between ADC and the
// hashing baseline under the default WAN latency model (§V.2.2's
// qualitative claim, quantified). Means are in virtual ticks
// (microseconds under the default model).
type ResponseResult = experiments.ResponseResult

// ResponseTime runs both algorithms on the virtual-time engine.
// openLoopInterval > 0 switches to open-loop injection at that mean
// inter-arrival time (Poisson gaps).
func ResponseTime(p Profile, openLoopInterval int64) (*ResponseResult, error) {
	return runProfile(p, func(ip experiments.Profile) (*ResponseResult, error) {
		return experiments.ResponseTime(ip, experiments.ResponseOptions{
			OpenLoopInterval: openLoopInterval,
			Poisson:          openLoopInterval > 0,
		})
	})
}

// BackendPoint is one run of the data-structure study (§V.3.3's proposed
// speed-up, quantified).
type BackendPoint struct {
	// Backend is "list" (paper-faithful) or "btree" (the binary
	// max-heap).
	Backend string
	// Elapsed is the wall-clock runtime of the identical simulation.
	Elapsed time.Duration
	// HitRate confirms behavioural equivalence across backends.
	HitRate float64
}

// LossPoint is one (loss rate, recovery arm) measurement of the resilience
// study — an extension beyond the paper, whose protocol assumes lossless
// transport (§III.1). HitRate and MeanResponse cover completed requests
// only; Completion is completed/injected logical requests.
type LossPoint = experiments.LossPoint

// LossSweep measures ADC under i.i.d. message loss, with and without the
// recovery protocol, open-loop on the virtual-time engine. rates nil
// selects 0/0.5/1/2/5%; rec nil selects the reference recovery parameters.
func LossSweep(p Profile, rates []float64, rec *Recovery) ([]LossPoint, error) {
	r, err := runProfile(p, func(ip experiments.Profile) (*experiments.LossSweepResult, error) {
		return experiments.LossSweep(ip, rates, rec.toSim())
	})
	if err != nil {
		return nil, err
	}
	return r.Points, nil
}

// CrashRecoveryResult is the fail-stop convergence study: proxy 0 crashes
// ~40% through the trace and restarts cold (tables lost) ~70% through,
// with the recovery protocol on.
type CrashRecoveryResult = experiments.CrashRecoveryResult

// CrashRecovery runs the fail-stop convergence study. rec nil selects the
// reference recovery parameters.
func CrashRecovery(p Profile, rec *Recovery) (*CrashRecoveryResult, error) {
	return runProfile(p, func(ip experiments.Profile) (*CrashRecoveryResult, error) {
		return experiments.CrashRecovery(ip, rec.toSim())
	})
}

// BackendComparison times one identical simulation on each ordered-table
// backend.
func BackendComparison(p Profile) ([]BackendPoint, error) {
	pts, err := runProfile(p, func(ip experiments.Profile) ([]experiments.BackendPoint, error) {
		return experiments.BackendComparison(ip, 1_000_000)
	})
	if err != nil {
		return nil, err
	}
	out := make([]BackendPoint, len(pts))
	for i, pt := range pts {
		out[i] = BackendPoint{Backend: pt.Backend.String(), Elapsed: pt.Elapsed, HitRate: pt.HitRate}
	}
	return out, nil
}

// ConvergencePoint is one measurement of ADC's self-organization speed:
// how long after an object first appears do the proxies holding a belief
// about its location reach lasting agreement, at one caching-table size.
type ConvergencePoint = experiments.ConvergencePoint

// ConvergenceSweep measures location-convergence time against caching-table
// size on the virtual-time runtime, deriving the times from a kind-masked
// request-path trace. sizes nil selects the paper's 5k–30k grid.
func ConvergenceSweep(p Profile, sizes []int) ([]ConvergencePoint, error) {
	return runProfile(p, func(ip experiments.Profile) ([]ConvergencePoint, error) {
		return experiments.ConvergenceSweep(ip, experiments.ConvergenceOptions{Sizes: sizes})
	})
}

// ReplicationPoint is one cell of the hot-object replication sweep: one
// algorithm (with the replication knobs set on replicated ADC rows) run
// over the reference shifting-Zipf stream.
type ReplicationPoint struct {
	// Algorithm is "adc", "carp" or "chash"; Replicated marks the ADC
	// rows with the controller on.
	Algorithm    string
	Replicated   bool
	HotThreshold int
	MaxReplicas  int
	// HitRate, MeanResponse and P99Response summarise completed requests
	// (virtual ticks).
	HitRate      float64
	MeanResponse float64
	P99Response  float64
	// MeanWindowShare and MeanWindowPeak are warmup-skipped windowed load
	// statistics: the mean over metric windows of the per-window max/mean
	// reception share, and of the hottest proxy's per-window receptions.
	// The transient post-shift hotspot replication removes is visible
	// only here, not in the run totals.
	MeanWindowShare float64
	MeanWindowPeak  float64
	// MaxMeanShare and GiniShare are the run-total load spreads.
	MaxMeanShare float64
	GiniShare    float64
	// CachedEntries is the cluster-wide cached-object count at the last
	// occupancy snapshot — the capacity cost of multi-homing.
	CachedEntries int
	// Controller counters (zero on non-replicated rows).
	ReplicaPushes uint64
	ReplicaDrops  uint64
	ReplicaHits   uint64
}

// ReplicationOptions parameterises the replication sweep; the zero value
// selects the reference grid (thresholds 2/4/8 × max replicas 2/4/7) and
// stream (30k requests, popularity shift every 3k, 100 hot objects,
// Zipf alpha 2.0).
type ReplicationOptions = experiments.ReplicationOptions

// ReplicationSweep measures what hot-object replication buys across its
// two knobs, against stock ADC and both hashing baselines on the identical
// open-loop shifting-Zipf stream with queued service. The first three
// points are the baselines (stock ADC, CARP, consistent hashing); the rest
// is the threshold × max-replicas grid in row-major order.
func ReplicationSweep(p Profile, opts ReplicationOptions) ([]ReplicationPoint, error) {
	pts, err := runProfile(p, func(ip experiments.Profile) ([]experiments.ReplicationPoint, error) {
		return experiments.ReplicationSweep(ip, opts)
	})
	if err != nil {
		return nil, err
	}
	out := make([]ReplicationPoint, len(pts))
	for i, pt := range pts {
		out[i] = ReplicationPoint{
			Algorithm:       pt.Algorithm.String(),
			Replicated:      pt.Replicated,
			HotThreshold:    pt.HotThreshold,
			MaxReplicas:     pt.MaxReplicas,
			HitRate:         pt.HitRate,
			MeanResponse:    pt.MeanResponse,
			P99Response:     pt.P99Response,
			MeanWindowShare: pt.MeanWindowShare,
			MeanWindowPeak:  pt.MeanWindowPeak,
			MaxMeanShare:    pt.MaxMeanShare,
			GiniShare:       pt.GiniShare,
			CachedEntries:   pt.CachedEntries,
			ReplicaPushes:   pt.ReplicaPushes,
			ReplicaDrops:    pt.ReplicaDrops,
			ReplicaHits:     pt.ReplicaHits,
		}
	}
	return out, nil
}
