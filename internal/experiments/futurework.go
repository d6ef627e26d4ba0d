package experiments

import (
	"context"
	"fmt"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/trace"
)

// PreLearnedResult is the §V.2.1 future-work experiment: "Further tests,
// with a repetition of the request pattern and a system with pre-learned
// information shall be shown in the future work." The whole trace is
// replayed twice through one uninterrupted cluster; the second pass runs
// against fully learned mapping tables.
type PreLearnedResult struct {
	// FirstPass and SecondPass are the hit rates of each replay of the
	// identical request stream.
	FirstPass  float64
	SecondPass float64
	// FirstHops and SecondHops are the matching hop averages.
	FirstHops  float64
	SecondHops float64
	// Series is the windowed time series across both passes; the
	// boundary sits at PassBoundary requests.
	Series       []metrics.Point
	PassBoundary int
}

// PreLearned runs the profile's workload twice back-to-back through one
// ADC cluster. The learning lag of Fig. 11's fill phase must be absent
// from the second pass.
func PreLearned(p Profile) (*PreLearnedResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tr, err := p.trace()
	if err != nil {
		return nil, err
	}
	objs := tr.Objects()
	doubled := make([]ids.ObjectID, 0, 2*len(objs))
	doubled = append(doubled, objs...)
	doubled = append(doubled, objs...)

	boundary := len(objs)
	cfg := p.ClusterConfig(cluster.ADC, p.Tables(), uint64(boundary))
	res, err := cluster.Run(cfg, trace.NewSliceSource(doubled))
	if err != nil {
		return nil, fmt.Errorf("experiments: pre-learned run: %w", err)
	}

	out := &PreLearnedResult{Series: res.Series, PassBoundary: boundary}
	total := float64(res.Summary.Requests)
	for _, pt := range res.Series {
		if pt.Requests == uint64(boundary) {
			first := float64(pt.Requests)
			out.FirstPass = pt.CumHitRate
			out.FirstHops = pt.CumHops
			out.SecondPass = (res.Summary.HitRate*total - pt.CumHitRate*first) / (total - first)
			out.SecondHops = (res.Summary.Hops*total - pt.CumHops*first) / (total - first)
			return out, nil
		}
	}
	return nil, fmt.Errorf("experiments: pass boundary sample missing")
}

// ProxyCountPoint is one run of the array-size study (§V.1.2 exposes the
// parameter; no figure sweeps it).
type ProxyCountPoint struct {
	// Proxies is the array size.
	Proxies int
	// HitRate is the post-fill hit rate.
	HitRate float64
	// Hops is the post-fill mean hops per request.
	Hops float64
}

// ProxyCountSweep varies the number of proxy agents while the total cache
// capacity of the system stays constant (per-proxy tables shrink as the
// array grows), isolating the cost of distribution: more proxies mean
// longer random searches.
func ProxyCountSweep(p Profile, counts []int) ([]ProxyCountPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(counts) == 0 {
		counts = []int{2, 3, 5, 8}
	}
	ref := p.Tables()
	refTotal := struct{ s, m, c int }{
		s: ref.SingleSize * p.Proxies,
		m: ref.MultipleSize * p.Proxies,
		c: ref.CachingSize * p.Proxies,
	}
	for _, n := range counts {
		if n <= 0 {
			return nil, fmt.Errorf("experiments: invalid proxy count %d", n)
		}
	}
	tr, err := p.trace()
	if err != nil {
		return nil, err
	}
	fillEnd, _ := tr.Boundaries()
	out := make([]ProxyCountPoint, len(counts))
	err = p.forEach("proxycount", len(counts), func(_ context.Context, i int) (uint64, error) {
		n := counts[i]
		tables := ref
		tables.SingleSize = maxInt(1, refTotal.s/n)
		tables.MultipleSize = maxInt(1, refTotal.m/n)
		tables.CachingSize = maxInt(1, refTotal.c/n)
		cfg := p.ClusterConfig(cluster.ADC, tables, uint64(fillEnd))
		cfg.NumProxies = n
		res, err := run(cfg, tr)
		if err != nil {
			return 0, fmt.Errorf("experiments: %d proxies: %w", n, err)
		}
		hit, hops := postFillRates(res, fillEnd)
		out[i] = ProxyCountPoint{Proxies: n, HitRate: hit, Hops: hops}
		return res.Delivered, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
