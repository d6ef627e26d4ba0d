package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
)

// The experiments in this file go beyond the paper's figures: they cover
// the parameters the paper declares available but unused ("maximum number
// of hops ... can be used but were not applied in our latest work", §V.1),
// the design claims it makes without data (selective caching beats LRU,
// §III.4; aging expires stale objects, §III.4), and the data-structure
// replacement it proposes as future work (§V.3.3).

// MaxHopsPoint is one run of the max-hops study.
type MaxHopsPoint struct {
	// MaxHops is the forwarding bound (0 = unbounded, the paper's
	// setting).
	MaxHops int
	// HitRate is the post-fill hit rate.
	HitRate float64
	// Hops is the post-fill mean hops per request.
	Hops float64
}

// MaxHopsSweep measures how bounding the random search changes hit rate
// and cost: tight bounds cut searches short (fewer hops, fewer hits),
// loose bounds converge to the unbounded loop-terminated behaviour.
func MaxHopsSweep(p Profile, bounds []int) ([]MaxHopsPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(bounds) == 0 {
		bounds = []int{1, 2, 3, 4, 6, 8, 0}
	}
	tr, err := p.trace()
	if err != nil {
		return nil, err
	}
	fillEnd, _ := tr.Boundaries()
	out := make([]MaxHopsPoint, len(bounds))
	err = p.forEach("maxhops", len(bounds), func(_ context.Context, i int) (uint64, error) {
		b := bounds[i]
		cfg := p.ClusterConfig(cluster.ADC, p.Tables(), uint64(fillEnd))
		cfg.MaxHops = b
		res, err := cluster.Run(cfg, tr.Cursor())
		if err != nil {
			return 0, fmt.Errorf("experiments: maxhops %d: %w", b, err)
		}
		hit, hops := postFillRates(res, fillEnd)
		out[i] = MaxHopsPoint{MaxHops: b, HitRate: hit, Hops: hops}
		return res.Delivered, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AblationResult compares the full ADC algorithm against one disabled
// mechanism.
type AblationResult struct {
	// Name identifies the ablation ("selective-vs-lru", "aging-off").
	Name string
	// Full is the post-fill hit rate with the mechanism enabled.
	Full float64
	// Ablated is the post-fill hit rate with it disabled.
	Ablated float64
	// FullHops and AblatedHops are the matching hop averages.
	FullHops    float64
	AblatedHops float64
}

// SelectiveCachingAblation quantifies §III.4's claim that "our algorithm
// works better with the approach of selective caching and an ordered table
// than a table based on a typical LRU algorithm" by swapping the caching
// table for an admit-everything LRU.
func SelectiveCachingAblation(p Profile) (*AblationResult, error) {
	return p.ablate("selective-vs-lru", func(t *core.Config) { t.CacheAdmitAll = true })
}

// AgingAblation disables the aging rule of Fig. 4, letting objects that
// were hot in the past squat in the tables forever.
func AgingAblation(p Profile) (*AblationResult, error) {
	return p.ablate("aging-off", func(t *core.Config) { t.AgingOff = true })
}

func (p Profile) ablate(name string, disable func(*core.Config)) (*AblationResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tr, err := p.trace()
	if err != nil {
		return nil, err
	}
	fillEnd, _ := tr.Boundaries()
	// arms[0] is the full algorithm, arms[1] the ablated one; the two
	// runs are independent and fan out together.
	arms := []func(*core.Config){nil, disable}
	labels := []string{"full", "ablated"}
	var hitRates, hopRates [2]float64
	err = p.forEach("ablation:"+name, len(arms), func(_ context.Context, i int) (uint64, error) {
		tables := p.Tables()
		if arms[i] != nil {
			arms[i](&tables)
		}
		res, err := cluster.Run(p.ClusterConfig(cluster.ADC, tables, uint64(fillEnd)), tr.Cursor())
		if err != nil {
			return 0, fmt.Errorf("experiments: %s %s run: %w", name, labels[i], err)
		}
		hitRates[i], hopRates[i] = postFillRates(res, fillEnd)
		return res.Delivered, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name: name, Full: hitRates[0], Ablated: hitRates[1],
		FullHops: hopRates[0], AblatedHops: hopRates[1],
	}, nil
}

// BackendPoint is one run of the ordered-table backend study: the same
// simulation on the paper's structures versus the proposed replacement.
type BackendPoint struct {
	// Backend names the ordered-table implementation.
	Backend core.Backend
	// SingleScan reports whether the O(n) single-table was used.
	SingleScan bool
	// Elapsed is the wall-clock runtime.
	Elapsed time.Duration
	// HitRate confirms the backends are behaviourally identical.
	HitRate float64
}

// BackendComparison times the same simulation across table backends —
// the "more adapted data structure should provide speed-ups in the future
// versions of this algorithm" (§V.3.3) claim, quantified.
func BackendComparison(p Profile, requests int) ([]BackendPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	type variant struct {
		backend core.Backend
		scan    bool
	}
	variants := []variant{
		{core.BackendList, true},   // the paper's implementation
		{core.BackendSlice, false}, // binary search + unified directory
		{core.BackendBTree, false}, // the default block B-tree
	}
	wcfg := p.WorkloadConfig()
	if requests > 0 {
		wcfg.TotalRequests = p.scaled(requests)
	}
	tr, err := p.traceFor(wcfg)
	if err != nil {
		return nil, err
	}
	out := make([]BackendPoint, len(variants))
	err = p.forEach("backends", len(variants), func(_ context.Context, i int) (uint64, error) {
		v := variants[i]
		tables := p.Tables()
		tables.Backend = v.backend
		tables.SingleScan = v.scan
		res, err := cluster.Run(p.ClusterConfig(cluster.ADC, tables, 0), tr.Cursor())
		if err != nil {
			return 0, fmt.Errorf("experiments: backend %v: %w", v.backend, err)
		}
		out[i] = BackendPoint{
			Backend:    v.backend,
			SingleScan: v.scan,
			Elapsed:    res.Elapsed,
			HitRate:    res.Summary.HitRate,
		}
		return res.Delivered, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
