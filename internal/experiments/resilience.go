package experiments

import (
	"context"
	"fmt"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/sim"
)

// Resilience experiments — an extension beyond the paper, which assumes
// lossless transport ("we don't expect the loss of messages", §III.1). The
// loss sweep measures what that assumption is worth: without recovery every
// lost transfer strands a request chain (Completion falls with the loss
// rate and pending entries leak); with the recovery protocol switched on,
// timeouts and retransmission restore completion at the cost of duplicate
// traffic. The crash experiment watches the hit-rate time series dip when a
// proxy fail-stops and re-converge after it restarts cold.

// DefaultLossRates is the loss sweep's x-axis: lossless control up to 5%,
// the upper end of realistic WAN loss.
var DefaultLossRates = []float64{0, 0.005, 0.01, 0.02, 0.05}

// LossPoint is one (loss rate, recovery arm) measurement.
type LossPoint struct {
	// Loss is the i.i.d. message loss probability.
	Loss float64
	// Recovery reports which arm this is.
	Recovery bool
	// HitRate and MeanResponse cover completed requests only.
	HitRate      float64
	MeanResponse float64
	// Completion is completed/injected logical requests.
	Completion float64
	// Dropped counts engine-level discarded transfers.
	Dropped uint64
	// Timeouts, Retries and Abandoned are recovery-protocol counters
	// (zero in the no-recovery arm).
	Timeouts  uint64
	Retries   uint64
	Abandoned uint64
	// LeakedPending is the unretired loop-detection state left across all
	// proxies at run end; recovery's pending TTL drains it to zero.
	LeakedPending int
}

// LossSweepResult is the full sweep, no-recovery and recovery arms
// interleaved per rate.
type LossSweepResult struct {
	Points []LossPoint
}

// LossSweep runs ADC open-loop on the virtual-time engine across loss
// rates, once without and once with the recovery protocol. rates nil
// selects DefaultLossRates; rec zero selects sim.DefaultRecovery for the
// recovery arm.
func LossSweep(p Profile, rates []float64, rec sim.Recovery) (*LossSweepResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		rates = DefaultLossRates
	}
	if !rec.Enabled {
		rec = sim.DefaultRecovery()
	}
	tr, err := p.trace()
	if err != nil {
		return nil, err
	}
	n := len(rates) * 2
	points := make([]LossPoint, n)
	err = p.forEach("resilience-loss", n, func(_ context.Context, i int) (uint64, error) {
		rate := rates[i/2]
		withRecovery := i%2 == 1
		cfg := p.ClusterConfig(cluster.ADC, p.Tables(), 0)
		cfg.Runtime = cluster.RuntimeVirtualTime
		cfg.OpenLoopInterval = openLoopInterval
		if rate > 0 {
			cfg.Faults = &sim.FaultPlan{Seed: p.Seed, Loss: rate}
		}
		if withRecovery {
			cfg.Recovery = rec
		}
		res, err := run(cfg, tr)
		if err != nil {
			return 0, fmt.Errorf("experiments: loss sweep rate %v: %w", rate, err)
		}
		points[i] = LossPoint{
			Loss:          rate,
			Recovery:      withRecovery,
			HitRate:       res.Summary.HitRate,
			MeanResponse:  res.Summary.MeanResponse,
			Completion:    res.Completion,
			Dropped:       res.Dropped,
			Timeouts:      res.Summary.Timeouts,
			Retries:       res.Summary.Retries,
			Abandoned:     res.Summary.Abandoned,
			LeakedPending: res.LeakedPending,
		}
		return res.Delivered, nil
	})
	if err != nil {
		return nil, err
	}
	return &LossSweepResult{Points: points}, nil
}

// openLoopInterval is the resilience experiments' mean inter-arrival time
// in virtual ticks (1 ms — ~1000 req/s aggregate, the same order as the
// paper's Polygraph peak rate).
const openLoopInterval = 1_000

// CrashRecoveryResult is the fail-stop convergence experiment: one proxy
// crashes ~40% through the trace and restarts cold ~70% through.
type CrashRecoveryResult struct {
	// CrashAt and RestartAt are the scheduled virtual times.
	CrashAt, RestartAt int64
	// Series is client 0's hit-rate time series across the run; the dip
	// after the crash and the re-convergence after the restart are the
	// result.
	Series []metrics.Point
	// BeforeHit, DownHit and AfterHit are windowed hit rates over the
	// three phases of the series (pre-crash, down, post-restart).
	// BeforeHit starts at the first point whose moving window lies wholly
	// after the workload's fill phase, so it measures the converged
	// cluster rather than the cold start.
	BeforeHit, DownHit, AfterHit float64
	// Completion, Dropped and LeakedPending as in LossPoint.
	Completion    float64
	Dropped       uint64
	LeakedPending int
	// Crashes and Restarts echo the applied fail-stop transitions.
	Crashes, Restarts uint64
}

// CrashRecovery runs ADC open-loop with the recovery protocol on and a
// scheduled fail-stop of proxy 0 (cold restart: tables lost). rec zero
// selects sim.DefaultRecovery.
func CrashRecovery(p Profile, rec sim.Recovery) (*CrashRecoveryResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !rec.Enabled {
		rec = sim.DefaultRecovery()
	}
	tr, err := p.trace()
	if err != nil {
		return nil, err
	}
	// The open-loop clock makes run length predictable: N requests at one
	// injection per interval. Crash at 40%, restart at 70%.
	total := int64(len(tr.Objects()))
	duration := total * openLoopInterval
	crashAt := duration * 2 / 5
	restartAt := duration * 7 / 10

	cfg := p.ClusterConfig(cluster.ADC, p.Tables(), 0)
	cfg.Runtime = cluster.RuntimeVirtualTime
	cfg.OpenLoopInterval = openLoopInterval
	cfg.SampleEvery = sampleEveryFor(total)
	cfg.Recovery = rec
	cfg.Faults = &sim.FaultPlan{Seed: cfg.Seed, Crashes: []sim.Crash{{Node: 0, At: crashAt, RestartAt: restartAt, LoseTables: true}}}

	res, err := run(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("experiments: crash recovery: %w", err)
	}
	out := &CrashRecoveryResult{
		CrashAt:       crashAt,
		RestartAt:     restartAt,
		Series:        res.Series,
		Completion:    res.Completion,
		Dropped:       res.Dropped,
		LeakedPending: res.LeakedPending,
		Crashes:       res.Faults.Crashes,
		Restarts:      res.Faults.Restarts,
	}
	// Phase boundaries in request indexes: injection is one request per
	// interval, so request k is injected near virtual time k·interval.
	fillEnd, _ := tr.Boundaries()
	warm := uint64(fillEnd + cfg.Window)
	crashReq := uint64(crashAt / openLoopInterval)
	restartReq := uint64(restartAt / openLoopInterval)
	out.BeforeHit = phaseHit(res.Series, warm, crashReq)
	out.DownHit = phaseHit(res.Series, crashReq, restartReq)
	out.AfterHit = phaseHit(res.Series, restartReq, ^uint64(0))
	return out, nil
}

// sampleEveryFor picks a series resolution of ~200 points across the run.
func sampleEveryFor(total int64) uint64 {
	s := uint64(total / 200)
	if s == 0 {
		s = 1
	}
	return s
}

// phaseHit averages the windowed hit rate of the series points falling in
// [from, to) requests.
func phaseHit(series []metrics.Point, from, to uint64) float64 {
	var sum float64
	var n int
	for _, pt := range series {
		if pt.Requests >= from && pt.Requests < to {
			sum += pt.HitRate
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
