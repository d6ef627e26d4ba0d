package experiments

import (
	"context"
	"fmt"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/sim"
)

// ResponseResult quantifies §V.2.2's qualitative claim — "ADC has longer
// systems response than the hashing algorithm" — on the virtual-time
// engine with an explicit latency model. Response times are in virtual
// microseconds under the default WAN model (proxies 5–10 ms away, origin
// 50 ms away).
type ResponseResult struct {
	// ADCMean and HashingMean are mean response times in virtual ticks.
	ADCMean     float64
	HashingMean float64
	// ADCHit and HashingHit are the matching hit rates (context: a
	// higher hit rate avoids expensive origin round trips).
	ADCHit     float64
	HashingHit float64
	// OpenLoop reports whether injection was open-loop.
	OpenLoop bool
}

// ResponseOptions tweak the response-time experiment.
type ResponseOptions struct {
	// Latency overrides the latency model (zero = default WAN model).
	Latency sim.LatencyModel
	// OpenLoopInterval switches to open-loop injection with this mean
	// inter-arrival time in ticks (0 = closed loop).
	OpenLoopInterval int64
	// Poisson draws exponential arrivals in open-loop mode.
	Poisson bool
}

// ResponseTime runs ADC and the hashing baseline on the virtual-time
// engine and compares mean response times.
func ResponseTime(p Profile, opts ResponseOptions) (*ResponseResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := &ResponseResult{OpenLoop: opts.OpenLoopInterval > 0}
	tr, err := p.trace()
	if err != nil {
		return nil, err
	}
	algos := []cluster.Algorithm{cluster.ADC, cluster.CARP}
	results := make([]*cluster.Result, len(algos))
	err = p.forEach("response", len(algos), func(_ context.Context, i int) (uint64, error) {
		cfg := p.ClusterConfig(algos[i], p.Tables(), 0)
		cfg.Runtime = cluster.RuntimeVirtualTime
		cfg.Latency = opts.Latency
		cfg.OpenLoopInterval = opts.OpenLoopInterval
		cfg.Poisson = opts.Poisson
		res, err := run(cfg, tr)
		if err != nil {
			return 0, fmt.Errorf("experiments: response %v: %w", algos[i], err)
		}
		results[i] = res
		return res.Delivered, nil
	})
	if err != nil {
		return nil, err
	}
	for i, algo := range algos {
		res := results[i]
		switch algo {
		case cluster.ADC:
			out.ADCMean = res.Summary.MeanResponse
			out.ADCHit = res.Summary.HitRate
		case cluster.CARP:
			out.HashingMean = res.Summary.MeanResponse
			out.HashingHit = res.Summary.HitRate
		}
	}
	return out, nil
}
