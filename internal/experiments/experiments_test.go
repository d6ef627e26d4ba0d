package experiments

import (
	"testing"

	"github.com/adc-sim/adc/internal/core"
)

// tinyProfile keeps experiment tests fast: 1% of paper scale.
func tinyProfile() Profile {
	p := DefaultProfile()
	p.Scale = 0.01
	p.Window = 500
	return p
}

func TestProfileValidate(t *testing.T) {
	if err := DefaultProfile().Validate(); err != nil {
		t.Errorf("default profile invalid: %v", err)
	}
	if err := PaperProfile().Validate(); err != nil {
		t.Errorf("paper profile invalid: %v", err)
	}
	bad := DefaultProfile()
	bad.Scale = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero scale must fail")
	}
	bad = DefaultProfile()
	bad.Proxies = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero proxies must fail")
	}
}

func TestProfileScaling(t *testing.T) {
	p := DefaultProfile() // scale 0.1
	if got := p.Requests(); got != 399_000 {
		t.Errorf("Requests = %d, want 399000", got)
	}
	tbl := p.Tables()
	if tbl.SingleSize != 2000 || tbl.MultipleSize != 2000 || tbl.CachingSize != 1000 {
		t.Errorf("tables = %+v", tbl)
	}
	w := p.WorkloadConfig()
	if w.PopulationSize != 1000 {
		t.Errorf("population = %d, want 1000", w.PopulationSize)
	}
	full := PaperProfile()
	if full.Requests() != paperRequests {
		t.Errorf("paper requests = %d", full.Requests())
	}
}

func TestCompareProducesBothSeries(t *testing.T) {
	p := tinyProfile()
	cmp, err := Compare(p, CompareOptions{SampleEvery: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.ADC) == 0 || len(cmp.Hashing) == 0 {
		t.Fatalf("series missing: adc=%d hashing=%d", len(cmp.ADC), len(cmp.Hashing))
	}
	if len(cmp.CHash) != 0 {
		t.Error("CHash series must be absent unless requested")
	}
	if cmp.ADCSummary.Requests != uint64(p.Requests()) {
		t.Errorf("ADC processed %d requests, want %d", cmp.ADCSummary.Requests, p.Requests())
	}
	if cmp.FillEnd <= 0 || cmp.Phase2End <= cmp.FillEnd {
		t.Errorf("phase boundaries wrong: %d, %d", cmp.FillEnd, cmp.Phase2End)
	}
	// Fig. 12's headline: ADC costs more hops than hashing.
	if cmp.ADCSummary.Hops <= cmp.HashingSummary.Hops {
		t.Errorf("ADC hops %.2f should exceed hashing hops %.2f",
			cmp.ADCSummary.Hops, cmp.HashingSummary.Hops)
	}
}

func TestCompareWithCHash(t *testing.T) {
	cmp, err := Compare(tinyProfile(), CompareOptions{IncludeCHash: true, SampleEvery: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.CHash) == 0 || cmp.CHashSummary.Requests == 0 {
		t.Error("CHash series missing despite IncludeCHash")
	}
}

func TestSweepShapes(t *testing.T) {
	p := tinyProfile()
	pts, err := Sweep(p, SweepOptions{Sizes: []int{5_000, 20_000}, Tables: []TableName{TableCaching}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	small, big := pts[0], pts[1]
	if small.Size >= big.Size {
		t.Fatalf("sweep order wrong: %d then %d", small.Size, big.Size)
	}
	// Fig. 13's headline: the caching table dominates the hit rate.
	if small.HitRate >= big.HitRate {
		t.Errorf("hit rate must grow with caching size: %.3f @%d vs %.3f @%d",
			small.HitRate, small.Size, big.HitRate, big.Size)
	}
	for _, pt := range pts {
		if pt.HitRate <= 0 || pt.HitRate >= 1 {
			t.Errorf("implausible hit rate %v", pt.HitRate)
		}
		if pt.Elapsed <= 0 {
			t.Errorf("missing elapsed time")
		}
	}
}

func TestSweepUnknownTable(t *testing.T) {
	_, err := Sweep(tinyProfile(), SweepOptions{Sizes: []int{5000}, Tables: []TableName{"bogus"}})
	if err == nil {
		t.Error("unknown table must fail")
	}
}

func TestMaxHopsSweep(t *testing.T) {
	pts, err := MaxHopsSweep(tinyProfile(), []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	bounded, unbounded := pts[0], pts[1]
	// A bound of 1 forwarding kills most searches: fewer hops and a
	// lower hit rate than the unbounded walk.
	if bounded.Hops >= unbounded.Hops {
		t.Errorf("maxhops=1 hops %.2f should be below unbounded %.2f",
			bounded.Hops, unbounded.Hops)
	}
	if bounded.HitRate > unbounded.HitRate {
		t.Errorf("maxhops=1 hit %.3f should not beat unbounded %.3f",
			bounded.HitRate, unbounded.HitRate)
	}
}

func TestSelectiveCachingAblation(t *testing.T) {
	res, err := SelectiveCachingAblation(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	// §III.4: selective caching must beat the LRU cache table.
	if res.Full <= res.Ablated {
		t.Errorf("selective caching %.3f should beat LRU %.3f", res.Full, res.Ablated)
	}
}

func TestAgingAblation(t *testing.T) {
	res, err := AgingAblation(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.Full <= 0 || res.Ablated <= 0 {
		t.Fatalf("degenerate ablation result %+v", res)
	}
	// Aging must not hurt: the full algorithm is at least as good.
	if res.Full < res.Ablated-0.02 {
		t.Errorf("aging-on %.3f markedly below aging-off %.3f", res.Full, res.Ablated)
	}
}

func TestPreLearnedSecondPassIsWarm(t *testing.T) {
	r, err := PreLearned(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	// The second pass runs on fully learned tables: no fill-phase lag,
	// so its hit rate must clearly beat the cold first pass.
	if r.SecondPass <= r.FirstPass {
		t.Errorf("second pass %.3f must beat cold first pass %.3f",
			r.SecondPass, r.FirstPass)
	}
	if r.SecondHops >= r.FirstHops {
		t.Errorf("warm hops %.2f must be below cold hops %.2f",
			r.SecondHops, r.FirstHops)
	}
}

func TestProxyCountSweep(t *testing.T) {
	pts, err := ProxyCountSweep(tinyProfile(), []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// With total capacity constant, more proxies mean longer searches.
	if pts[1].Hops <= pts[0].Hops {
		t.Errorf("8 proxies should cost more hops than 2: %.2f vs %.2f",
			pts[1].Hops, pts[0].Hops)
	}
	if _, err := ProxyCountSweep(tinyProfile(), []int{0}); err == nil {
		t.Error("invalid proxy count must fail")
	}
}

func TestBaselinesComparison(t *testing.T) {
	pts, err := Baselines(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("baselines = %d, want 5", len(pts))
	}
	byName := map[string]BaselinePoint{}
	for _, pt := range pts {
		byName[pt.Algorithm.String()] = pt
		if pt.HitRate <= 0 || pt.HitRate >= 1 {
			t.Errorf("%v hit rate %v implausible", pt.Algorithm, pt.HitRate)
		}
	}
	// The coordinator handles every request and reply: its dispatcher
	// must dominate the load distribution.
	if byName["coord"].BottleneckShare < 0.4 {
		t.Errorf("coordinator bottleneck share %.2f, want ≥ 0.4",
			byName["coord"].BottleneckShare)
	}
	// Decentralised hashing spreads load ≈ evenly.
	if byName["carp"].BottleneckShare > 0.4 {
		t.Errorf("CARP bottleneck share %.2f, want ≈ 1/N",
			byName["carp"].BottleneckShare)
	}
	// The shared hierarchy root carries more than a leaf's share.
	if byName["hier"].BottleneckShare <= byName["carp"].BottleneckShare {
		t.Errorf("hierarchy root share %.2f should exceed CARP's %.2f",
			byName["hier"].BottleneckShare, byName["carp"].BottleneckShare)
	}
}

func TestResponseTimeClosedLoop(t *testing.T) {
	r, err := ResponseTime(tinyProfile(), ResponseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.ADCMean <= 0 || r.HashingMean <= 0 {
		t.Fatalf("degenerate response times %+v", r)
	}
	// §V.2.2: ADC's longer search paths cost response time.
	if r.ADCMean <= r.HashingMean {
		t.Errorf("ADC response %.0f should exceed hashing %.0f",
			r.ADCMean, r.HashingMean)
	}
	if r.OpenLoop {
		t.Error("closed loop mislabelled")
	}
}

func TestResponseTimeOpenLoop(t *testing.T) {
	r, err := ResponseTime(tinyProfile(), ResponseOptions{
		OpenLoopInterval: 10_000, // one request per 10ms of virtual time
		Poisson:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OpenLoop {
		t.Error("open loop mislabelled")
	}
	if r.ADCMean <= 0 || r.HashingMean <= 0 {
		t.Fatalf("degenerate response times %+v", r)
	}
}

func TestBackendComparison(t *testing.T) {
	pts, err := BackendComparison(tinyProfile(), 500_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	// All backends must be behaviourally identical.
	for _, pt := range pts[1:] {
		if pt.HitRate != pts[0].HitRate {
			t.Errorf("backend %v hit rate %.4f differs from %v's %.4f",
				pt.Backend, pt.HitRate, pts[0].Backend, pts[0].HitRate)
		}
	}
	// The paper-faithful list backend must be the slowest.
	var list, btree BackendPoint
	for _, pt := range pts {
		switch pt.Backend {
		case core.BackendList:
			list = pt
		case core.BackendBTree:
			btree = pt
		}
	}
	if list.Elapsed <= btree.Elapsed {
		t.Logf("note: list backend (%v) not slower than btree (%v) at this tiny scale",
			list.Elapsed, btree.Elapsed)
	}
}
