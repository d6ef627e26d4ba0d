package adc

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/experiments"
)

func smallWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := NewWorkload(WorkloadConfig{Requests: 20_000, Population: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// scaledProfile is the reference experiment profile at scale.
func scaledProfile(scale float64) experiments.Profile {
	p := experiments.DefaultProfile()
	p.Scale = scale
	return p
}

func smallConfig() Config {
	return Config{
		Proxies:       4,
		SingleTable:   200,
		MultipleTable: 200,
		CachingTable:  100,
		Window:        500,
	}
}

func TestRunDefaults(t *testing.T) {
	res, err := Run(smallConfig(), smallWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 20_000 {
		t.Errorf("Requests = %d, want 20000", res.Requests)
	}
	if res.HitRate <= 0 || res.HitRate >= 1 {
		t.Errorf("HitRate = %v", res.HitRate)
	}
	if res.OriginResolved != res.Requests-res.Hits {
		t.Errorf("origin count inconsistent: %d vs %d misses",
			res.OriginResolved, res.Requests-res.Hits)
	}
	if len(res.ProxyStats) != 4 {
		t.Errorf("ProxyStats = %d entries", len(res.ProxyStats))
	}
}

func TestRunAllPublicAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{ADC, CARP, CHash, Hierarchical, Coordinator} {
		cfg := smallConfig()
		cfg.Algorithm = algo
		res, err := Run(cfg, smallWorkload(t))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Requests != 20_000 {
			t.Errorf("%v processed %d requests", algo, res.Requests)
		}
	}
}

func TestRunAllRuntimesAgree(t *testing.T) {
	var base *Result
	for _, rt := range []Runtime{RuntimeSequential, RuntimeVirtualTime} {
		cfg := smallConfig()
		cfg.Runtime = rt
		res, err := Run(cfg, smallWorkload(t))
		if err != nil {
			t.Fatalf("%v: %v", rt, err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Hits != base.Hits || res.Hops != base.Hops {
			t.Errorf("%v diverged: hits %d vs %d, hops %v vs %v",
				rt, res.Hits, base.Hits, res.Hops, base.Hops)
		}
	}
}

func TestRunVirtualTime(t *testing.T) {
	cfg := smallConfig()
	cfg.Runtime = RuntimeVirtualTime
	res, err := Run(cfg, smallWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponse <= 0 || res.MaxResponse < res.MeanResponse {
		t.Errorf("response stats wrong: mean %v max %v", res.MeanResponse, res.MaxResponse)
	}
	// Virtual time must not change behaviour: same hits as sequential.
	seq, err := Run(smallConfig(), smallWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != seq.Hits {
		t.Errorf("virtual-time run diverged: %d vs %d hits", res.Hits, seq.Hits)
	}
}

func TestRunOpenLoop(t *testing.T) {
	cfg := smallConfig()
	cfg.Runtime = RuntimeVirtualTime
	cfg.OpenLoopInterval = 20_000 // one request per 20ms of virtual time
	cfg.Poisson = true
	res, err := Run(cfg, smallWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 20_000 {
		t.Errorf("open loop completed %d requests", res.Requests)
	}
	if res.MeanResponse <= 0 {
		t.Error("open loop must record response times")
	}
}

func TestOpenLoopRequiresVirtualTime(t *testing.T) {
	cfg := smallConfig()
	cfg.OpenLoopInterval = 100 // sequential runtime: must be rejected
	if _, err := Run(cfg, smallWorkload(t)); err == nil {
		t.Error("open loop on the sequential runtime must fail")
	}
}

func TestResponseTimeExperiment(t *testing.T) {
	r, err := experiments.ResponseTime(scaledProfile(0.01), experiments.ResponseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.ADCMean <= r.HashingMean {
		t.Errorf("ADC response %.0f should exceed hashing %.0f (§V.2.2)",
			r.ADCMean, r.HashingMean)
	}
}

func TestPreLearnedExperiment(t *testing.T) {
	r, err := experiments.PreLearned(scaledProfile(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if r.SecondPass <= r.FirstPass {
		t.Errorf("warm pass %.3f should beat cold pass %.3f", r.SecondPass, r.FirstPass)
	}
}

func TestProxyCountSweepExperiment(t *testing.T) {
	pts, err := experiments.ProxyCountSweep(scaledProfile(0.01), []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Proxies != 2 || pts[1].Proxies != 5 {
		t.Errorf("points = %+v", pts)
	}
}

func TestJoinProxyPublicAPI(t *testing.T) {
	cfg := smallConfig()
	cfg.JoinProxyAt = []uint64{10_000}
	res, err := Run(cfg, smallWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ProxyStats) != 5 {
		t.Fatalf("proxy stats = %d entries, want 5 after join", len(res.ProxyStats))
	}
	if res.ProxyStats[4].Requests == 0 {
		t.Error("joined proxy never saw traffic")
	}
	// Churn is ADC-only: hashing would need a global remap.
	bad := cfg
	bad.Algorithm = CARP
	if _, err := Run(bad, smallWorkload(t)); err == nil {
		t.Error("churn on CARP must fail")
	}
}

func TestShiftWorkloadPublicAPI(t *testing.T) {
	w, err := NewShiftWorkload(ShiftWorkloadConfig{
		Requests: 10_000, Period: 2_500, Population: 100, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Epochs() != 4 {
		t.Errorf("Epochs = %d, want 4", w.Epochs())
	}
	res, err := Run(smallConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 10_000 {
		t.Errorf("requests = %d", res.Requests)
	}
	if _, err := NewShiftWorkload(ShiftWorkloadConfig{}); err == nil {
		t.Error("empty shift config must fail")
	}
}

func TestHTTPFarmPublicAPI(t *testing.T) {
	farm, err := NewHTTPFarm(HTTPFarmConfig{
		Proxies:       3,
		SingleTable:   100,
		MultipleTable: 100,
		CachingTable:  50,
		Seed:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close() //nolint:errcheck // test teardown

	if _, err := farm.ProxyURL(99); err == nil {
		t.Error("out-of-range proxy index must fail")
	}
	src := NewSliceSource([]uint64{7, 7, 7, 7, 7, 7, 7, 7})
	requests, hits, err := farm.Run(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if requests != 8 || hits == 0 {
		t.Errorf("requests/hits = %d/%d", requests, hits)
	}
	if farm.OriginResolved() == 0 {
		t.Error("origin never resolved anything")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Algorithm: "nope"}, smallWorkload(t)); err == nil {
		t.Error("bad algorithm must fail")
	}
	if _, err := Run(Config{Entry: "sideways"}, smallWorkload(t)); err == nil {
		t.Error("bad entry policy must fail")
	}
	if _, err := Run(Config{Runtime: "quantum"}, smallWorkload(t)); err == nil {
		t.Error("bad runtime must fail")
	}
	if _, err := Run(Config{Backend: "rope"}, smallWorkload(t)); err == nil {
		t.Error("bad backend must fail")
	}
	if _, err := Run(smallConfig(), nil); err == nil {
		t.Error("nil source must fail")
	}
	// The retired TCP and agents runtimes and the skip-list and
	// sorted-slice backends fail like any unknown name, and the error
	// lists what is accepted.
	for want, cfg := range map[string]Config{
		`unknown runtime "tcp" (want sequential or vtime)`:    {Runtime: "tcp"},
		`unknown runtime "agents" (want sequential or vtime)`: {Runtime: "agents"},
		`unknown backend "skiplist" (want btree or list)`:     {Backend: "skiplist"},
		`unknown backend "slice" (want btree or list)`:        {Backend: "slice"},
	} {
		if _, err := Run(cfg, smallWorkload(t)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run(%+v) = %v, want an error containing %q", cfg, err, want)
		}
	}
}

func TestSeriesSampling(t *testing.T) {
	cfg := smallConfig()
	cfg.SampleEvery = 5000
	res, err := Run(cfg, smallWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Errorf("Series = %d points, want 4", len(res.Series))
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a := smallWorkload(t)
	b := smallWorkload(t)
	for {
		x, okA := a.Next()
		y, okB := b.Next()
		if okA != okB {
			t.Fatal("streams ended at different lengths")
		}
		if !okA {
			break
		}
		if x != y {
			t.Fatal("same-seed workloads diverged")
		}
	}
}

func TestTraceRoundTripPublic(t *testing.T) {
	src := NewSliceSource([]uint64{3, 1, 4, 1, 5})
	var buf bytes.Buffer
	if err := SaveTrace(&buf, src); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Total() != 5 {
		t.Fatalf("Total = %d", loaded.Total())
	}
	want := []uint64{3, 1, 4, 1, 5}
	for i, w := range want {
		got, ok := loaded.Next()
		if !ok || got != w {
			t.Fatalf("request %d = %d,%v, want %d", i, got, ok, w)
		}
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/trace.bin"
	w := smallWorkload(t)
	if err := SaveTraceFile(path, w); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Total() != 20_000 {
		t.Errorf("Total = %d", loaded.Total())
	}
	// Replaying the trace must give the same result as the generator.
	w2 := smallWorkload(t)
	r1, err := Run(smallConfig(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(smallConfig(), w2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hits != r2.Hits {
		t.Errorf("trace replay diverged: %d vs %d hits", r1.Hits, r2.Hits)
	}
}

// TestLoadTraceFileForgedCount: the request count in a binary trace's
// header is read from the file. A count no int holds is an error, not a
// makeslice panic, and a count far beyond the body is a truncated trace,
// not an allocation of that many entries.
func TestLoadTraceFileForgedCount(t *testing.T) {
	for _, tc := range []struct {
		name, header, body, want string
	}{
		{"count above MaxInt", "\xff\xff\xff\xff\xff\xff\xff\xff", "", "more than an int holds"},
		{"count of 2^40", "\x00\x00\x00\x00\x00\x01\x00\x00", "\x03\x01", "truncated: 2 of 1099511627776"},
	} {
		path := t.TempDir() + "/forged.bin"
		if err := os.WriteFile(path, []byte("ADCTRC\x00\x01"+tc.header+tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTraceFile(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadTraceFile err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCompareSmall(t *testing.T) {
	cmp, err := experiments.Compare(scaledProfile(0.01), experiments.CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.ADC) == 0 || len(cmp.Hashing) == 0 {
		t.Fatal("missing series")
	}
	if cmp.ADCSummary.Hops <= cmp.HashingSummary.Hops {
		t.Errorf("ADC hops %.2f must exceed hashing %.2f", cmp.ADCSummary.Hops, cmp.HashingSummary.Hops)
	}
}

func TestSweepSmall(t *testing.T) {
	pts, err := experiments.Sweep(scaledProfile(0.01), experiments.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 18 { // 3 tables × 6 sizes
		t.Errorf("points = %d, want 18", len(pts))
	}
	seen := map[experiments.TableName]bool{}
	for _, pt := range pts {
		seen[pt.Table] = true
	}
	for _, tbl := range experiments.AllTables() {
		if !seen[tbl] {
			t.Errorf("table %s missing from sweep", tbl)
		}
	}
}

func TestAblationsSmall(t *testing.T) {
	p := scaledProfile(0.02)
	sel, err := experiments.SelectiveCachingAblation(p)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Full <= sel.Ablated {
		t.Errorf("selective %.3f must beat LRU %.3f", sel.Full, sel.Ablated)
	}
	ag, err := experiments.AgingAblation(p)
	if err != nil {
		t.Fatal(err)
	}
	if ag.Full <= ag.Ablated {
		t.Errorf("aging-on %.3f must beat aging-off %.3f", ag.Full, ag.Ablated)
	}
}

func TestMaxHopsSweepSmall(t *testing.T) {
	pts, err := experiments.MaxHopsSweep(scaledProfile(0.01), []int{1, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
}

func TestBackendComparisonSmall(t *testing.T) {
	pts, err := experiments.BackendComparison(scaledProfile(0.01), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts[1:] {
		if pt.HitRate != pts[0].HitRate {
			t.Errorf("backend %s hit rate differs: %.4f vs %.4f",
				pt.Backend, pt.HitRate, pts[0].HitRate)
		}
	}
}

func TestAblationKnobsThroughPublicAPI(t *testing.T) {
	base := smallConfig()
	lru := base
	lru.CacheLRU = true
	noAge := base
	noAge.AgingOff = true

	r0, err := Run(base, smallWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(lru, smallWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(noAge, smallWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	if r0.Hits == r1.Hits && r0.Hits == r2.Hits {
		t.Error("ablation knobs had no observable effect")
	}
}
