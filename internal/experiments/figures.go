package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/metrics"
)

// Comparison holds the data behind Figs. 11 (hit rate over the request
// stream) and 12 (hops over the request stream) for ADC versus the
// hashing baseline, plus run summaries.
type Comparison struct {
	// ADC and Hashing are time series sampled every SampleEvery
	// requests; Point.HitRate/Hops are the windowed values the paper
	// plots, Cum* the running totals.
	ADC     []metrics.Point
	Hashing []metrics.Point
	// CHash is filled when the extension baseline is requested.
	CHash []metrics.Point

	// Summaries of the full runs.
	ADCSummary     metrics.Summary
	HashingSummary metrics.Summary
	CHashSummary   metrics.Summary

	// FillEnd and Phase2End are the workload's phase boundaries in
	// requests, for annotating the three phases visible in Fig. 11.
	FillEnd   int
	Phase2End int

	// SampleEvery is the series sampling interval used.
	SampleEvery uint64
}

// CompareOptions tweak the Figs. 11–12 experiment.
type CompareOptions struct {
	// IncludeCHash also runs the consistent-hashing extension baseline.
	IncludeCHash bool
	// SampleEvery overrides the series sampling interval
	// (default: one point per moving-average window).
	SampleEvery uint64
}

// Compare runs ADC and the hashing baseline over the profile's workload —
// the experiment behind Fig. 11 ("Hit Rate – ADC vs. Hashing") and Fig. 12
// ("Hops – ADC vs. Hashing").
func Compare(p Profile, opts CompareOptions) (*Comparison, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sampleEvery := opts.SampleEvery
	if sampleEvery == 0 {
		sampleEvery = uint64(p.Window)
	}

	tr, err := p.trace()
	if err != nil {
		return nil, err
	}
	fillEnd, phase2End := tr.Boundaries()
	out := &Comparison{
		FillEnd:     fillEnd,
		Phase2End:   phase2End,
		SampleEvery: sampleEvery,
	}

	algos := []cluster.Algorithm{cluster.ADC, cluster.CARP}
	if opts.IncludeCHash {
		algos = append(algos, cluster.CHash)
	}
	results := make([]*cluster.Result, len(algos))
	err = p.forEach("compare", len(algos), func(_ context.Context, i int) (uint64, error) {
		res, err := p.run(p.ClusterConfig(algos[i], p.Tables(), sampleEvery))
		if err != nil {
			return 0, fmt.Errorf("experiments: %v run: %w", algos[i], err)
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
			out.ADC = res.Series
			out.ADCSummary = res.Summary
		case cluster.CARP:
			out.Hashing = res.Series
			out.HashingSummary = res.Summary
		case cluster.CHash:
			out.CHash = res.Series
			out.CHashSummary = res.Summary
		}
	}
	return out, nil
}

// TableName identifies the swept table in Figs. 13–15.
type TableName string

// The three swept tables.
const (
	TableSingle   TableName = "single"
	TableMultiple TableName = "multiple"
	TableCaching  TableName = "caching"
)

// AllTables lists the swept tables in the paper's presentation order.
func AllTables() []TableName {
	return []TableName{TableCaching, TableMultiple, TableSingle}
}

// SweepPoint is one simulation of the parameter study: one table resized,
// the other two held at the reference configuration (§V.3: "when we
// changed the values for the caching table, we kept the size of the
// single and multiple-table at 20k entries").
type SweepPoint struct {
	// Table is the swept table.
	Table TableName
	// Size is the swept table's capacity for this run.
	Size int
	// HitRate is the hit rate over the request phases (fill excluded),
	// which is the regime the paper's Fig. 13 values describe.
	HitRate float64
	// CumHitRate is the whole-run hit rate including the fill phase.
	CumHitRate float64
	// Hops is the mean hops per request over the request phases.
	Hops float64
	// Elapsed is the wall-clock duration of the whole run.
	Elapsed time.Duration
}

// SweepOptions tweak the Figs. 13–15 experiments.
type SweepOptions struct {
	// Sizes are the paper-scale capacities to sweep; they are scaled by
	// the profile like everything else. Default 5k…30k step 5k (§V.3).
	Sizes []int
	// Tables restricts the sweep; default all three.
	Tables []TableName
	// PaperFaithfulTiming switches the single-table to O(n) scan and
	// the ordered tables to the O(n) linked list, reproducing the data
	// structures whose cost Fig. 15 measures.
	PaperFaithfulTiming bool
	// Requests overrides the paper-scale request count (scaled by the
	// profile). The timing sweep uses a shorter trace by default.
	Requests int
}

// DefaultSweepSizes is the paper's sweep grid (§V.3).
func DefaultSweepSizes() []int { return []int{5_000, 10_000, 15_000, 20_000, 25_000, 30_000} }

// Sweep runs the table-size parameter study behind Fig. 13 ("Hit Rates by
// Table Size"), Fig. 14 ("Hops by Table Size") and — with
// PaperFaithfulTiming — Fig. 15 ("Processing Time by Table Size").
func Sweep(p Profile, opts SweepOptions) ([]SweepPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sizes := opts.Sizes
	if len(sizes) == 0 {
		sizes = DefaultSweepSizes()
	}
	tables := opts.Tables
	if len(tables) == 0 {
		tables = AllTables()
	}

	type job struct {
		tbl  TableName
		size int
	}
	jobs := make([]job, 0, len(tables)*len(sizes))
	for _, tbl := range tables {
		for _, size := range sizes {
			jobs = append(jobs, job{tbl, size})
		}
	}
	out := make([]SweepPoint, len(jobs))
	err := p.forEach("sweep", len(jobs), func(_ context.Context, i int) (uint64, error) {
		pt, delivered, err := p.sweepOne(jobs[i].tbl, jobs[i].size, opts)
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

func (p Profile) sweepOne(tbl TableName, paperSize int, opts SweepOptions) (SweepPoint, uint64, error) {
	tables := p.Tables()
	size := p.scaled(paperSize)
	switch tbl {
	case TableSingle:
		tables.SingleSize = size
	case TableMultiple:
		tables.MultipleSize = size
	case TableCaching:
		tables.CachingSize = size
	default:
		return SweepPoint{}, 0, fmt.Errorf("experiments: unknown table %q", tbl)
	}
	if opts.PaperFaithfulTiming {
		tables.Backend = core.BackendList
	}

	wcfg := p.WorkloadConfig()
	if opts.Requests > 0 {
		wcfg.TotalRequests = p.scaled(opts.Requests)
	}
	tr, err := p.traceFor(wcfg)
	if err != nil {
		return SweepPoint{}, 0, err
	}
	fillEnd, _ := tr.Boundaries()

	// Sample exactly at the fill boundary so post-fill rates are exact.
	sampleEvery := uint64(fillEnd)
	ccfg := p.ClusterConfig(cluster.ADC, tables, sampleEvery)
	res, err := cluster.Run(ccfg, tr.Cursor())
	if err != nil {
		return SweepPoint{}, 0, fmt.Errorf("experiments: sweep %s=%d: %w", tbl, size, err)
	}

	hit, hops := postFillRates(res, fillEnd)
	return SweepPoint{
		Table:      tbl,
		Size:       size,
		HitRate:    hit,
		CumHitRate: res.Summary.HitRate,
		Hops:       hops,
		Elapsed:    res.Elapsed,
	}, res.Delivered, nil
}

// postFillRates derives hit and hop rates over the request phases from the
// cumulative series: the first sample falls exactly on the fill boundary.
func postFillRates(res *cluster.Result, fillEnd int) (hit, hops float64) {
	total := float64(res.Summary.Requests)
	cumHitsEnd := res.Summary.HitRate * total
	cumHopsEnd := res.Summary.Hops * total
	for _, pt := range res.Series {
		if pt.Requests == uint64(fillEnd) {
			fillReqs := float64(pt.Requests)
			post := total - fillReqs
			if post <= 0 {
				break
			}
			hit = (cumHitsEnd - pt.CumHitRate*fillReqs) / post
			hops = (cumHopsEnd - pt.CumHops*fillReqs) / post
			return hit, hops
		}
	}
	// No exact boundary sample (custom sampling): fall back to
	// whole-run rates.
	return res.Summary.HitRate, res.Summary.Hops
}
