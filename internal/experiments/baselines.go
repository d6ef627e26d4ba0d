package experiments

import (
	"context"
	"fmt"

	"github.com/adc-sim/adc/internal/cluster"
)

// BaselinePoint is one scheme's result in the all-baselines comparison.
type BaselinePoint struct {
	// Algorithm names the scheme.
	Algorithm cluster.Algorithm
	// HitRate is the post-fill hit rate.
	HitRate float64
	// Hops is the post-fill mean hops per request.
	Hops float64
	// BottleneckShare is the fraction of all proxy-side requests that
	// the single busiest node handled — ≈1/N for decentralised schemes,
	// ≈0.5 for the coordinator (every request passes it) and high for
	// the hierarchy's root.
	BottleneckShare float64
}

// Baselines runs every implemented scheme — ADC, CARP, consistent
// hashing, the hierarchical tree, and the central coordinator — over the
// same workload, quantifying the §II/§III design-space narrative: the
// coordinator's bottleneck, the hierarchy's root pressure, hashing's
// single-copy efficiency, ADC's adaptive middle ground. The five runs are
// independent and fan out over the profile's worker pool, each replaying
// the shared materialized trace.
func Baselines(p Profile) ([]BaselinePoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	algos := []cluster.Algorithm{
		cluster.ADC, cluster.CARP, cluster.CHash,
		cluster.Hierarchical, cluster.Coordinator,
	}
	tr, err := p.trace()
	if err != nil {
		return nil, err
	}
	fillEnd, _ := tr.Boundaries()
	out := make([]BaselinePoint, len(algos))
	err = p.forEach("baselines", len(algos), func(_ context.Context, i int) (uint64, error) {
		algo := algos[i]
		res, err := run(p.ClusterConfig(algo, p.Tables(), uint64(fillEnd)), tr)
		if err != nil {
			return 0, fmt.Errorf("experiments: baseline %v: %w", algo, err)
		}
		hit, hops := postFillRates(res, fillEnd)
		var total, busiest uint64
		for _, s := range res.ProxyStats {
			total += s.Requests
			if s.Requests > busiest {
				busiest = s.Requests
			}
		}
		share := 0.0
		if total > 0 {
			share = float64(busiest) / float64(total)
		}
		out[i] = BaselinePoint{
			Algorithm:       algo,
			HitRate:         hit,
			Hops:            hops,
			BottleneckShare: share,
		}
		return res.Delivered, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
