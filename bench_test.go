// Benchmarks regenerating each figure of the paper's evaluation (§V) plus
// the ablation studies DESIGN.md §5 calls out. Each benchmark iteration
// runs the complete experiment at 1/50 of paper scale so `go test -bench=.`
// finishes quickly; run cmd/adcsweep -metric figures -scale 1 for
// full-scale numbers.
// The reported metrics (hit rates, hop counts) are attached to the
// benchmark output via b.ReportMetric, so a bench run doubles as a
// regeneration of every headline number in EXPERIMENTS.md.
package adc_test

import (
	"testing"

	"github.com/adc-sim/adc"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/experiments"
)

// benchProfile is the scaled experiment profile used by every benchmark.
func benchProfile() experiments.Profile {
	p := experiments.DefaultProfile()
	p.Scale = 0.02
	return p
}

// BenchmarkFigure11HitRate runs the ADC-vs-hashing comparison and reports
// the cumulative hit rates behind Fig. 11.
func BenchmarkFigure11HitRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.Compare(benchProfile(), experiments.CompareOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.ADCSummary.HitRate, "adc-hit")
		b.ReportMetric(cmp.HashingSummary.HitRate, "hash-hit")
	}
}

// BenchmarkFigure12Hops reports the mean hops per request behind Fig. 12;
// the paper's claim is a ≈2-hop ADC premium.
func BenchmarkFigure12Hops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.Compare(benchProfile(), experiments.CompareOptions{})
		if err != nil {
			b.Fatal(err)
		}
		adcHops, hashHops := cmp.ADCSummary.Hops, cmp.HashingSummary.Hops
		b.ReportMetric(adcHops, "adc-hops")
		b.ReportMetric(hashHops, "hash-hops")
		b.ReportMetric(adcHops-hashHops, "gap")
	}
}

// BenchmarkFigure13HitsByTableSize runs the three table sweeps behind
// Fig. 13 and reports the caching-table extremes (the dominant parameter).
func BenchmarkFigure13HitsByTableSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Sweep(benchProfile(), experiments.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := cachingExtremes(pts)
		b.ReportMetric(lo, "hit-cache-5k")
		b.ReportMetric(hi, "hit-cache-30k")
	}
}

func cachingExtremes(pts []experiments.SweepPoint) (lo, hi float64) {
	first := true
	var minSize, maxSize int
	for _, pt := range pts {
		if pt.Table != experiments.TableCaching {
			continue
		}
		if first || pt.Size < minSize {
			minSize, lo = pt.Size, pt.HitRate
		}
		if first || pt.Size > maxSize {
			maxSize, hi = pt.Size, pt.HitRate
		}
		first = false
	}
	return lo, hi
}

// BenchmarkFigure14HopsByTableSize reports the hop spread across the
// sweep; the paper claims the variation stays within ≈¼ hop.
func BenchmarkFigure14HopsByTableSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Sweep(benchProfile(), experiments.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		minH, maxH := pts[0].Hops, pts[0].Hops
		for _, pt := range pts {
			if pt.Hops < minH {
				minH = pt.Hops
			}
			if pt.Hops > maxH {
				maxH = pt.Hops
			}
		}
		b.ReportMetric(maxH-minH, "hop-spread")
	}
}

// BenchmarkFigure15TimeByTableSize times the paper-faithful O(n) tables;
// the wall-clock growth with single-table size is Fig. 15's shape.
func BenchmarkFigure15TimeByTableSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Sweep(benchProfile(), experiments.SweepOptions{PaperFaithfulTiming: true, Requests: 1_000_000})
		if err != nil {
			b.Fatal(err)
		}
		var loS, hiS float64
		var minSize, maxSize int
		first := true
		for _, pt := range pts {
			if pt.Table != experiments.TableSingle {
				continue
			}
			if first || pt.Size < minSize {
				minSize, loS = pt.Size, pt.Elapsed.Seconds()
			}
			if first || pt.Size > maxSize {
				maxSize, hiS = pt.Size, pt.Elapsed.Seconds()
			}
			first = false
		}
		b.ReportMetric(hiS/loS, "single-slowdown-x")
	}
}

// BenchmarkAblationSelectiveVsLRU quantifies §III.4's selective-caching
// claim.
func BenchmarkAblationSelectiveVsLRU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SelectiveCachingAblation(benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Full-r.Ablated, "hit-delta")
	}
}

// BenchmarkAblationAging quantifies the Fig. 4 aging rule.
func BenchmarkAblationAging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AgingAblation(benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Full-r.Ablated, "hit-delta")
	}
}

// BenchmarkAblationMaxHops sweeps the forwarding bound the paper leaves
// unused.
func BenchmarkAblationMaxHops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.MaxHopsSweep(benchProfile(), []int{2, 0})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[1].HitRate-pts[0].HitRate, "unbounded-gain")
	}
}

// BenchmarkBackends times the identical simulation on the three
// ordered-table backends (§V.3.3's proposed speed-up).
func BenchmarkBackends(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.BackendComparison(benchProfile(), 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		var list, btree float64
		for _, pt := range pts {
			switch pt.Backend {
			case core.BackendList:
				list = pt.Elapsed.Seconds()
			case core.BackendBTree:
				btree = pt.Elapsed.Seconds()
			}
		}
		if btree > 0 {
			b.ReportMetric(list/btree, "list-vs-btree-x")
		}
	}
}

// BenchmarkBaselines runs all five schemes over one workload and reports
// their post-fill hit rates — the §II/§III design-space comparison.
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Baselines(benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			b.ReportMetric(pt.HitRate, pt.Algorithm.String()+"-hit")
		}
	}
}

// BenchmarkResponseTime runs the §V.2.2 response-time comparison on the
// virtual-time engine (WAN latency model).
func BenchmarkResponseTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ResponseTime(benchProfile(), experiments.ResponseOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ADCMean/1000, "adc-ms")
		b.ReportMetric(r.HashingMean/1000, "hash-ms")
	}
}

// BenchmarkSimulationThroughput measures raw simulator speed: requests per
// second through a five-proxy ADC system (the engine hot path).
func BenchmarkSimulationThroughput(b *testing.B) {
	w, err := adc.NewWorkload(adc.WorkloadConfig{Requests: 100_000, Population: 1000})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.Reset()
		b.StartTimer()
		res, err := adc.Run(adc.Config{
			Proxies: 5, SingleTable: 2000, MultipleTable: 2000, CachingTable: 1000,
		}, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Requests)/res.Elapsed.Seconds(), "req/s")
	}
}

// BenchmarkSweepSequential runs the Figs. 13–14 table sweep with the
// worker pool forced to one — the pre-parallel-runner baseline.
func BenchmarkSweepSequential(b *testing.B) {
	b.ReportAllocs()
	p := benchProfile()
	p.Parallelism = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Sweep(p, experiments.SweepOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the identical sweep at the default pool
// width (GOMAXPROCS); the speed-up over BenchmarkSweepSequential is the
// parallel runner's headline number and scales with core count.
func BenchmarkSweepParallel(b *testing.B) {
	b.ReportAllocs()
	p := benchProfile()
	p.Parallelism = 0 // GOMAXPROCS
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Sweep(p, experiments.SweepOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
