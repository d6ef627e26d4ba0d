package experiments

import (
	"context"
	"fmt"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/obs"
)

// The convergence study measures ADC's self-organization speed directly:
// how long after an object first appears do all proxies that hold a belief
// about its location agree on one — and stay agreed. The paper argues
// convergence qualitatively (§V.2, "the system converges towards an
// optimal mapping"); this experiment quantifies it from the request-path
// trace, sweeping the caching-table size because the caching table is what
// belief stability is about (a promoted object relocates beliefs, an
// evicted one invalidates them).

// ConvergencePoint is one convergence measurement at one caching-table size.
type ConvergencePoint struct {
	// Size is the scaled caching-table capacity of this run.
	Size int
	// Objects counts distinct objects observed in the trace; Converged of
	// them ended the run in lasting location agreement.
	Objects   int
	Converged int
	// MeanTime and MaxTime are virtual ticks from an object's first
	// appearance to the start of its final uninterrupted agreement,
	// averaged / maximized over converged objects.
	MeanTime float64
	MaxTime  int64
	// HitRate is the whole-run hit rate, for context.
	HitRate float64
}

// ConvergenceOptions tweak the convergence sweep.
type ConvergenceOptions struct {
	// Sizes are the paper-scale caching-table capacities to sweep,
	// scaled by the profile. Default: the §V.3 grid.
	Sizes []int
	// Requests overrides the paper-scale request count. Tracing keeps
	// every hit/backward/invalidate event in memory, so the default is a
	// quarter of the reference trace — convergence happens early.
	Requests int
}

// ConvergenceSweep measures location-convergence time against caching-table
// size on the virtual-time runtime, using a kind-masked request tracer.
func ConvergenceSweep(p Profile, opts ConvergenceOptions) ([]ConvergencePoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sizes := opts.Sizes
	if len(sizes) == 0 {
		sizes = DefaultSweepSizes()
	}
	requests := opts.Requests
	if requests == 0 {
		requests = paperRequests / 4
	}

	out := make([]ConvergencePoint, len(sizes))
	err := p.forEach("convergence", len(sizes), func(_ context.Context, i int) (uint64, error) {
		pt, delivered, err := p.convergenceOne(sizes[i], requests)
		if err != nil {
			return 0, err
		}
		out[i] = pt
		return delivered, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (p Profile) convergenceOne(paperSize, paperReqs int) (ConvergencePoint, uint64, error) {
	tables := p.Tables()
	size := p.scaled(paperSize)
	tables.CachingSize = size

	wcfg := p.WorkloadConfig()
	wcfg.TotalRequests = p.scaled(paperReqs)
	tr, err := p.traceFor(wcfg)
	if err != nil {
		return ConvergencePoint{}, 0, err
	}

	// Only the three belief-bearing kinds are recorded; everything else
	// stays on the nil-check fast path.
	tracer := obs.New(obs.KindHit, obs.KindBackward, obs.KindInvalidate)
	ccfg := p.ClusterConfig(cluster.ADC, tables, 0)
	ccfg.Runtime = cluster.RuntimeVirtualTime
	ccfg.Tracer = tracer

	res, err := cluster.Run(ccfg, tr.Cursor())
	if err != nil {
		return ConvergencePoint{}, 0, fmt.Errorf("experiments: convergence caching=%d: %w", size, err)
	}

	sum := obs.SummarizeConvergence(obs.ConvergenceTimes(tracer.Events()))
	return ConvergencePoint{
		Size:      size,
		Objects:   sum.Objects,
		Converged: sum.Converged,
		MeanTime:  sum.MeanTime,
		MaxTime:   sum.MaxTime,
		HitRate:   res.Summary.HitRate,
	}, res.Delivered, nil
}
