package adc

import (
	"fmt"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/experiments"
	"github.com/adc-sim/adc/internal/metrics"
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
	// Backend selects the ordered-table implementation (default btree).
	// Experiments that sweep backends themselves (TimingSweep,
	// BackendComparison) ignore it.
	Backend TableBackend
	// Shards, when positive, runs each simulation on the virtual-time
	// engine spread over that many worker shards. Results are
	// byte-identical to the default sequential execution.
	Shards int
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
// simulation.
type Progress struct {
	// Done counts completed simulations; Total is the fan-out size.
	Done, Total int
	// Workers is the resolved worker-pool width (the Parallel knob after
	// defaulting to GOMAXPROCS and clamping to the fan-out size).
	Workers int
	// Events is the cumulative number of engine message deliveries across
	// completed simulations; divide by elapsed wall clock for the
	// engine's events/sec throughput.
	Events uint64
}

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
	switch p.Entry {
	case "", EntryRandom:
	case EntryRoundRobin:
		ip.EntryPolicy = sim.EntryRoundRobin
	case EntryFixed:
		ip.EntryPolicy = sim.EntryFixed
	}
	backend, ok := core.ParseBackend(string(p.Backend))
	if !ok {
		return ip, fmt.Errorf("adc: unknown backend %q (want btree, slice or list)", p.Backend)
	}
	ip.Backend = backend
	ip.Shards = p.Shards
	ip.Parallelism = p.Parallel
	if cb := p.Progress; cb != nil {
		ip.Progress = func(info experiments.ProgressInfo) {
			cb(Progress{
				Done:    info.Done,
				Total:   info.Total,
				Workers: info.Workers,
				Events:  info.Events,
			})
		}
	}
	return ip, ip.Validate()
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
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	cmp, err := experiments.Compare(ip, experiments.CompareOptions{IncludeCHash: includeCHash})
	if err != nil {
		return nil, err
	}
	out := &Comparison{
		ADCHitRate:     cmp.ADCSummary.HitRate,
		HashingHitRate: cmp.HashingSummary.HitRate,
		ADCHops:        cmp.ADCSummary.Hops,
		HashingHops:    cmp.HashingSummary.Hops,
		FillEnd:        cmp.FillEnd,
		Phase2End:      cmp.Phase2End,
	}
	out.ADC = convertPoints(cmp.ADC)
	out.Hashing = convertPoints(cmp.Hashing)
	out.CHash = convertPoints(cmp.CHash)
	return out, nil
}

func convertPoints(pts []metrics.Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point(p)
	}
	return out
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
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	pts, err := experiments.Sweep(ip, opts)
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
// paper exposes the parameter but never sweeps it).
type MaxHopsPoint struct {
	MaxHops int
	HitRate float64
	Hops    float64
}

// MaxHopsSweep measures hit rate and cost against the forwarding bound;
// bound 0 is the paper's unbounded setting.
func MaxHopsSweep(p Profile, bounds []int) ([]MaxHopsPoint, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	pts, err := experiments.MaxHopsSweep(ip, bounds)
	if err != nil {
		return nil, err
	}
	out := make([]MaxHopsPoint, len(pts))
	for i, pt := range pts {
		out[i] = MaxHopsPoint(pt)
	}
	return out, nil
}

// Ablation compares full ADC against one disabled mechanism; hit rates are
// post-fill.
type Ablation struct {
	Name        string
	Full        float64
	Ablated     float64
	FullHops    float64
	AblatedHops float64
}

// SelectiveCachingAblation quantifies §III.4's claim that selective
// caching beats a cache-everything LRU table.
func SelectiveCachingAblation(p Profile) (*Ablation, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	r, err := experiments.SelectiveCachingAblation(ip)
	if err != nil {
		return nil, err
	}
	a := Ablation(*r)
	return &a, nil
}

// AgingAblation quantifies the effect of the Fig. 4 aging rule.
func AgingAblation(p Profile) (*Ablation, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	r, err := experiments.AgingAblation(ip)
	if err != nil {
		return nil, err
	}
	a := Ablation(*r)
	return &a, nil
}

// PreLearnedResult is the §V.2.1 future-work experiment: the identical
// trace replayed twice through one uninterrupted cluster.
type PreLearnedResult struct {
	// FirstPass and SecondPass are each replay's hit rate; the second
	// runs against fully learned ("pre-learned") mapping tables.
	FirstPass  float64
	SecondPass float64
	FirstHops  float64
	SecondHops float64
}

// PreLearned quantifies how much of ADC's Fig. 11 lag is pure learning:
// the second pass of the same trace starts warm and must not lag.
func PreLearned(p Profile) (*PreLearnedResult, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	r, err := experiments.PreLearned(ip)
	if err != nil {
		return nil, err
	}
	return &PreLearnedResult{
		FirstPass:  r.FirstPass,
		SecondPass: r.SecondPass,
		FirstHops:  r.FirstHops,
		SecondHops: r.SecondHops,
	}, nil
}

// ProxyCountPoint is one run of the array-size study: total system cache
// capacity held constant while the proxy count varies.
type ProxyCountPoint struct {
	Proxies int
	HitRate float64
	Hops    float64
}

// ProxyCountSweep measures the cost of distribution: more, smaller
// proxies mean longer searches for the same total capacity.
func ProxyCountSweep(p Profile, counts []int) ([]ProxyCountPoint, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	pts, err := experiments.ProxyCountSweep(ip, counts)
	if err != nil {
		return nil, err
	}
	out := make([]ProxyCountPoint, len(pts))
	for i, pt := range pts {
		out[i] = ProxyCountPoint(pt)
	}
	return out, nil
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
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	pts, err := experiments.Baselines(ip)
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
// qualitative claim, quantified).
type ResponseResult struct {
	// ADCMean and HashingMean are mean response times in virtual ticks
	// (microseconds under the default model).
	ADCMean     float64
	HashingMean float64
	ADCHit      float64
	HashingHit  float64
}

// ResponseTime runs both algorithms on the virtual-time engine.
// openLoopInterval > 0 switches to open-loop injection at that mean
// inter-arrival time (Poisson gaps).
func ResponseTime(p Profile, openLoopInterval int64) (*ResponseResult, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	r, err := experiments.ResponseTime(ip, experiments.ResponseOptions{
		OpenLoopInterval: openLoopInterval,
		Poisson:          openLoopInterval > 0,
	})
	if err != nil {
		return nil, err
	}
	return &ResponseResult{
		ADCMean:     r.ADCMean,
		HashingMean: r.HashingMean,
		ADCHit:      r.ADCHit,
		HashingHit:  r.HashingHit,
	}, nil
}

// BackendPoint is one run of the data-structure study (§V.3.3's proposed
// speed-up, quantified).
type BackendPoint struct {
	// Backend is "list" (paper-faithful), "slice" or "btree".
	Backend string
	// Elapsed is the wall-clock runtime of the identical simulation.
	Elapsed time.Duration
	// HitRate confirms behavioural equivalence across backends.
	HitRate float64
}

// LossPoint is one (loss rate, recovery arm) measurement of the resilience
// study — an extension beyond the paper, whose protocol assumes lossless
// transport (§III.1).
type LossPoint struct {
	// Loss is the i.i.d. message loss probability.
	Loss float64
	// Recovery reports whether the timeout/retransmission protocol ran.
	Recovery bool
	// HitRate and MeanResponse cover completed requests only.
	HitRate      float64
	MeanResponse float64
	// Completion is completed/injected logical requests (1 when nothing
	// strands).
	Completion float64
	// Dropped counts discarded transfers; Timeouts, Retries and Abandoned
	// are recovery counters (zero in the no-recovery arm).
	Dropped   uint64
	Timeouts  uint64
	Retries   uint64
	Abandoned uint64
	// LeakedPending is unretired loop-detection state left at run end.
	LeakedPending int
}

// LossSweep measures ADC under i.i.d. message loss, with and without the
// recovery protocol, open-loop on the virtual-time engine. rates nil
// selects 0/0.5/1/2/5%; rec nil selects the reference recovery parameters.
func LossSweep(p Profile, rates []float64, rec *Recovery) ([]LossPoint, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	r, err := experiments.LossSweep(ip, rates, toSimRecovery(rec))
	if err != nil {
		return nil, err
	}
	out := make([]LossPoint, len(r.Points))
	for i, pt := range r.Points {
		out[i] = LossPoint(pt)
	}
	return out, nil
}

// CrashRecoveryResult is the fail-stop convergence study: proxy 0 crashes
// ~40% through the trace and restarts cold (tables lost) ~70% through,
// with the recovery protocol on.
type CrashRecoveryResult struct {
	// CrashAt and RestartAt are the scheduled virtual times in ticks.
	CrashAt, RestartAt int64
	// Series is the windowed hit-rate time series across the run.
	Series []Point
	// BeforeHit, DownHit and AfterHit average the windowed hit rate over
	// the pre-crash, down and post-restart phases.
	BeforeHit, DownHit, AfterHit float64
	// Completion, Dropped and LeakedPending as in LossPoint.
	Completion    float64
	Dropped       uint64
	LeakedPending int
}

// CrashRecovery runs the fail-stop convergence study. rec nil selects the
// reference recovery parameters.
func CrashRecovery(p Profile, rec *Recovery) (*CrashRecoveryResult, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	r, err := experiments.CrashRecovery(ip, toSimRecovery(rec))
	if err != nil {
		return nil, err
	}
	return &CrashRecoveryResult{
		CrashAt:       r.CrashAt,
		RestartAt:     r.RestartAt,
		Series:        convertPoints(r.Series),
		BeforeHit:     r.BeforeHit,
		DownHit:       r.DownHit,
		AfterHit:      r.AfterHit,
		Completion:    r.Completion,
		Dropped:       r.Dropped,
		LeakedPending: r.LeakedPending,
	}, nil
}

// toSimRecovery converts the public pointer form (nil = defaults for
// experiment use) to the internal value form.
func toSimRecovery(r *Recovery) sim.Recovery {
	if r == nil {
		return sim.DefaultRecovery()
	}
	return sim.Recovery{
		Enabled:    true,
		Timeout:    r.Timeout,
		MaxRetries: r.MaxRetries,
		Backoff:    r.Backoff,
		PendingTTL: r.PendingTTL,
	}.Normalize()
}

// BackendComparison times one identical simulation on each ordered-table
// backend.
func BackendComparison(p Profile) ([]BackendPoint, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	pts, err := experiments.BackendComparison(ip, 1_000_000)
	if err != nil {
		return nil, err
	}
	out := make([]BackendPoint, len(pts))
	for i, pt := range pts {
		name := pt.Backend.String()
		if pt.SingleScan {
			name += "+scan"
		}
		out[i] = BackendPoint{Backend: name, Elapsed: pt.Elapsed, HitRate: pt.HitRate}
	}
	return out, nil
}

// ConvergencePoint is one measurement of ADC's self-organization speed:
// how long after an object first appears do the proxies holding a belief
// about its location reach lasting agreement, at one caching-table size.
type ConvergencePoint struct {
	// Size is the scaled caching-table capacity of this run.
	Size int
	// Objects counts distinct objects observed; Converged of them ended
	// the run in lasting location agreement.
	Objects   int
	Converged int
	// MeanTime and MaxTime are virtual ticks from first appearance to the
	// start of the final uninterrupted agreement, over converged objects.
	MeanTime float64
	MaxTime  int64
	// HitRate is the whole-run hit rate, for context.
	HitRate float64
}

// ConvergenceSweep measures location-convergence time against caching-table
// size on the virtual-time runtime, deriving the times from a kind-masked
// request-path trace. sizes nil selects the paper's 5k–30k grid.
func ConvergenceSweep(p Profile, sizes []int) ([]ConvergencePoint, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	pts, err := experiments.ConvergenceSweep(ip, experiments.ConvergenceOptions{Sizes: sizes})
	if err != nil {
		return nil, err
	}
	out := make([]ConvergencePoint, len(pts))
	for i, pt := range pts {
		out[i] = ConvergencePoint(pt)
	}
	return out, nil
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
type ReplicationOptions struct {
	Thresholds  []int
	MaxReplicas []int
	Requests    int
	Period      int
	Population  int
	Alpha       float64
	// WorkloadSeed seeds the stream (0 = profile seed).
	WorkloadSeed int64
}

// ReplicationSweep measures what hot-object replication buys across its
// two knobs, against stock ADC and both hashing baselines on the identical
// open-loop shifting-Zipf stream with queued service. The first three
// points are the baselines (stock ADC, CARP, consistent hashing); the rest
// is the threshold × max-replicas grid in row-major order.
func ReplicationSweep(p Profile, opts ReplicationOptions) ([]ReplicationPoint, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	pts, err := experiments.ReplicationSweep(ip, experiments.ReplicationOptions{
		Thresholds:   opts.Thresholds,
		MaxReplicas:  opts.MaxReplicas,
		Requests:     opts.Requests,
		Period:       opts.Period,
		Population:   opts.Population,
		Alpha:        opts.Alpha,
		WorkloadSeed: opts.WorkloadSeed,
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
