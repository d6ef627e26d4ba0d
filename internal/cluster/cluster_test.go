package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
	"github.com/adc-sim/adc/internal/workload"
)

func testConfig(algo Algorithm) Config {
	return Config{
		Algorithm:  algo,
		NumProxies: 4,
		Tables:     core.Config{SingleSize: 256, MultipleSize: 256, CachingSize: 128},
		Seed:       11,
		Window:     100,
	}
}

func testWorkload(t *testing.T, total int) workload.Source {
	t.Helper()
	cfg := workload.DefaultConfig(total)
	cfg.PopulationSize = 200
	gen, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"valid adc", func(c *Config) {}, false},
		{"bad algorithm", func(c *Config) { c.Algorithm = 0 }, true},
		{"zero proxies", func(c *Config) { c.NumProxies = 0 }, true},
		{"negative clients", func(c *Config) { c.Clients = -1 }, true},
		{"negative maxhops", func(c *Config) { c.MaxHops = -1 }, true},
		{"unknown runtime", func(c *Config) { c.Runtime = RuntimeVirtualTime + 1 }, true},
		{"bad tables", func(c *Config) { c.Tables.SingleSize = 0 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(ADC)
			tc.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tc.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
	// CARP only needs CachingSize.
	carpCfg := testConfig(CARP)
	carpCfg.Tables = core.Config{CachingSize: 10}
	if err := carpCfg.Validate(); err != nil {
		t.Errorf("CARP config with only CachingSize must validate: %v", err)
	}
}

func TestParseAlgorithm(t *testing.T) {
	for s, want := range map[string]Algorithm{
		"adc": ADC, "carp": CARP, "hash": CARP, "hashing": CARP,
		"chash": CHash, "consistent": CHash,
	} {
		got, err := ParseAlgorithm(s)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("unknown algorithm must fail")
	}
}

// TestParseRuntimeAndBackend covers the two name tables every entry point
// (adc.Config, config files, CLI flags) goes through: each accepted spelling
// parses to a value whose String parses back to it, and the retired names
// ("tcp", "agents", "skiplist", "slice") and near-misses are rejected.
func TestParseRuntimeAndBackend(t *testing.T) {
	tables := []struct {
		kind     string
		parse    func(string) (fmt.Stringer, error)
		accepted map[string]fmt.Stringer
	}{
		{"runtime", func(s string) (fmt.Stringer, error) { return ParseRuntime(s) }, map[string]fmt.Stringer{
			"": RuntimeSequential, "sequential": RuntimeSequential,
			"vtime": RuntimeVirtualTime, "virtual": RuntimeVirtualTime,
		}},
		{"backend", func(s string) (fmt.Stringer, error) { return core.ParseBackend(s) }, map[string]fmt.Stringer{
			"": core.BackendBTree, "btree": core.BackendBTree, "list": core.BackendList,
		}},
	}
	for _, tb := range tables {
		for name, want := range tb.accepted {
			got, err := tb.parse(name)
			if err != nil || got != want {
				t.Errorf("%s %q parsed to (%v, %v), want %v", tb.kind, name, got, err, want)
				continue
			}
			if back, err := tb.parse(got.String()); err != nil || back != got {
				t.Errorf("%s %q: String %q does not parse back", tb.kind, name, got)
			}
		}
		for _, name := range []string{"tcp", "agents", "skiplist", "slice", " vtime", "BTREE", "list "} {
			if got, err := tb.parse(name); err == nil {
				t.Errorf("%s %q must be rejected, parsed to %v", tb.kind, name, got)
			} else if !strings.Contains(err.Error(), "(want ") {
				t.Errorf("%s %q: error %q does not list the accepted names", tb.kind, name, err)
			}
		}
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []Algorithm{ADC, CARP, CHash, Hierarchical, Coordinator} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			res, err := Run(testConfig(algo), testWorkload(t, 4000))
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Requests != 4000 {
				t.Errorf("requests = %d, want 4000", res.Summary.Requests)
			}
			if res.Summary.HitRate <= 0 || res.Summary.HitRate >= 1 {
				t.Errorf("hit rate = %v, want in (0,1)", res.Summary.HitRate)
			}
			if res.Summary.Hops < 2 {
				t.Errorf("hops = %v, want >= 2", res.Summary.Hops)
			}
			// Client-side miss accounting must equal the origin's
			// own resolution counter.
			misses := res.Summary.Requests - res.Summary.Hits
			if res.OriginResolved != misses {
				t.Errorf("origin resolved %d, client counted %d misses",
					res.OriginResolved, misses)
			}
			wantStats := 4
			if algo == Hierarchical || algo == Coordinator {
				wantStats = 5 // plus the root / the dispatcher
			}
			if len(res.ProxyStats) != wantStats {
				t.Errorf("proxy stats = %d entries, want %d", len(res.ProxyStats), wantStats)
			}
		})
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	for _, algo := range []Algorithm{ADC, CARP} {
		a, err := Run(testConfig(algo), testWorkload(t, 3000))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(testConfig(algo), testWorkload(t, 3000))
		if err != nil {
			t.Fatal(err)
		}
		if a.Summary.Hits != b.Summary.Hits || a.Summary.Hops != b.Summary.Hops {
			t.Errorf("%v: repeated runs diverged: %+v vs %+v", algo, a.Summary, b.Summary)
		}
	}
}

func TestMultipleClients(t *testing.T) {
	cfg := testConfig(ADC)
	cfg.Clients = 3
	res, err := Run(cfg, testWorkload(t, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Requests != 3000 {
		t.Errorf("requests = %d, want 3000 across 3 clients", res.Summary.Requests)
	}
}

func TestSeriesCollection(t *testing.T) {
	cfg := testConfig(CARP)
	cfg.SampleEvery = 500
	res, err := Run(cfg, testWorkload(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Errorf("series points = %d, want 4", len(res.Series))
	}
}

func TestNilSource(t *testing.T) {
	if _, err := New(testConfig(ADC), nil); err == nil {
		t.Error("nil source must fail")
	}
}

func TestADCAccessors(t *testing.T) {
	c, err := New(testConfig(ADC), testWorkload(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ADCProxies()) != 4 {
		t.Error("ADC cluster proxies wrong")
	}
	if c.Origin() == nil || len(c.Clients()) != 1 {
		t.Error("origin/clients wiring wrong")
	}
}

func TestLoadBalance(t *testing.T) {
	// Self-organization should spread request load roughly evenly with
	// random entry (§I: "one single load-balanced proxy cache").
	cfg := testConfig(ADC)
	res, err := Run(cfg, testWorkload(t, 8000))
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, s := range res.ProxyStats {
		total += s.Requests
	}
	mean := total / uint64(len(res.ProxyStats))
	for i, s := range res.ProxyStats {
		if s.Requests < mean/2 || s.Requests > mean*2 {
			t.Errorf("proxy %d handled %d requests, mean %d — load unbalanced",
				i, s.Requests, mean)
		}
	}
}

func TestVirtualTimeRuntime(t *testing.T) {
	cfg := testConfig(ADC)
	cfg.Runtime = RuntimeVirtualTime
	res, err := Run(cfg, testWorkload(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanResponse <= 0 {
		t.Error("virtual-time run must record response times")
	}
	if res.Summary.MaxResponse < res.Summary.MeanResponse {
		t.Errorf("max response %v below mean %v",
			res.Summary.MaxResponse, res.Summary.MeanResponse)
	}
	// Behaviour must match the sequential runtime exactly.
	seq, err := Run(testConfig(ADC), testWorkload(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Hits != seq.Summary.Hits {
		t.Errorf("virtual time changed behaviour: %d vs %d hits",
			res.Summary.Hits, seq.Summary.Hits)
	}
}

func TestOpenLoopCluster(t *testing.T) {
	cfg := testConfig(CARP)
	cfg.Runtime = RuntimeVirtualTime
	cfg.OpenLoopInterval = 7_000
	cfg.Poisson = true
	res, err := Run(cfg, testWorkload(t, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Requests != 3000 {
		t.Errorf("open loop completed %d requests", res.Summary.Requests)
	}
	if res.Summary.MeanResponse <= 0 {
		t.Error("open loop must record response times")
	}
	// Open loop off the virtual-time runtime is rejected.
	bad := testConfig(CARP)
	bad.OpenLoopInterval = 100
	if err := bad.Validate(); err == nil {
		t.Error("open loop on sequential runtime must fail validation")
	}
}

// TestClosedAndOpenLoopAgreeWithoutOverlap: the two injection modes differ
// only in when a request goes out. An open loop whose interval is far above
// the longest round trip never has two requests in flight, so with a
// deterministic entry policy it must see exactly what the closed loop sees.
func TestClosedAndOpenLoopAgreeWithoutOverlap(t *testing.T) {
	for _, alg := range []Algorithm{ADC, CARP, CHash, Hierarchical, Coordinator} {
		t.Run(alg.String(), func(t *testing.T) {
			run := func(interval int64) *Result {
				cfg := testConfig(alg)
				cfg.Runtime = RuntimeVirtualTime
				cfg.EntryPolicy = sim.EntryRoundRobin
				cfg.ResponseBuckets = 4000
				cfg.OpenLoopInterval = interval
				res, err := Run(cfg, testWorkload(t, 20_000))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			closed, open := run(0), run(1_000_000)
			c, o := closed.Summary, open.Summary
			if c.Requests != 20_000 || o.Requests != 20_000 {
				t.Fatalf("completed %d closed, %d open; want 20000 each", c.Requests, o.Requests)
			}
			if c.Hits != o.Hits || c.Hops != o.Hops || c.MeanResponse != o.MeanResponse || c.P99Response != o.P99Response {
				t.Errorf("closed loop hits %d, hops %v, mean %v, p99 %v; open loop %d, %v, %v, %v",
					c.Hits, c.Hops, c.MeanResponse, c.P99Response, o.Hits, o.Hops, o.MeanResponse, o.P99Response)
			}
			if !reflect.DeepEqual(closed.ProxyStats, open.ProxyStats) {
				t.Errorf("per-proxy stats differ:\nclosed %+v\nopen   %+v", closed.ProxyStats, open.ProxyStats)
			}
		})
	}
}

func TestMultiClientResponseMerging(t *testing.T) {
	cfg := testConfig(ADC)
	cfg.Runtime = RuntimeVirtualTime
	cfg.Clients = 3
	res, err := Run(cfg, testWorkload(t, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Requests != 3000 {
		t.Errorf("requests = %d", res.Summary.Requests)
	}
	if res.Summary.MeanResponse <= 0 || res.Summary.MaxResponse < res.Summary.MeanResponse {
		t.Errorf("merged response stats wrong: %+v", res.Summary)
	}
}

func TestProxyJoinMidRun(t *testing.T) {
	cfg := testConfig(ADC)
	cfg.JoinProxyAt = []uint64{4000}
	c, err := New(cfg, testWorkload(t, 8000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Requests != 8000 {
		t.Fatalf("requests = %d", res.Summary.Requests)
	}
	proxies := c.ADCProxies()
	if len(proxies) != 5 {
		t.Fatalf("cluster has %d proxies after join, want 5", len(proxies))
	}
	newcomer := proxies[4].Stats()
	if newcomer.Requests == 0 {
		t.Error("the joined proxy never received a request")
	}
	if newcomer.RepliesSeen == 0 {
		t.Error("the joined proxy never saw backwarding traffic")
	}
	// It should carry a meaningful share of the post-join load: it was
	// present for half the run, so expect at least ~5% of all requests.
	var total uint64
	for _, p := range proxies {
		total += p.Stats().Requests
	}
	if newcomer.Requests < total/20 {
		t.Errorf("joined proxy handled only %d of %d requests", newcomer.Requests, total)
	}
	for _, p := range proxies {
		if p.PendingLen() != 0 {
			t.Errorf("proxy %v has dangling pending state after churn", p.ID())
		}
	}
}

func TestProxyJoinDeterministic(t *testing.T) {
	run := func() uint64 {
		cfg := testConfig(ADC)
		cfg.JoinProxyAt = []uint64{2000}
		res, err := Run(cfg, testWorkload(t, 5000))
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.Hits
	}
	if a, b := run(), run(); a != b {
		t.Errorf("churn runs diverged: %d vs %d hits", a, b)
	}
}

func TestChurnValidation(t *testing.T) {
	base := testConfig(ADC)
	base.JoinProxyAt = []uint64{100}

	carpCfg := base
	carpCfg.Algorithm = CARP
	if err := carpCfg.Validate(); err == nil {
		t.Error("churn with CARP must fail")
	}
	multi := base
	multi.Clients = 2
	if err := multi.Validate(); err == nil {
		t.Error("churn with multiple clients must fail")
	}
	bad := base
	bad.JoinProxyAt = []uint64{100, 100}
	if err := bad.Validate(); err == nil {
		t.Error("non-increasing join points must fail")
	}
	zero := base
	zero.JoinProxyAt = []uint64{0}
	if err := zero.Validate(); err == nil {
		t.Error("join at request 0 must fail")
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid churn config rejected: %v", err)
	}
}

func TestEntryPolicyPropagates(t *testing.T) {
	cfg := testConfig(ADC)
	cfg.EntryPolicy = sim.EntryFixed
	c, err := New(cfg, trace.NewSliceSource([]ids.ObjectID{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ProxyStats[0].Requests == 0 {
		t.Error("fixed entry policy must route everything through proxy 0 first")
	}
	for i := 1; i < 4; i++ {
		// Other proxies only see forwarded traffic; with 3 cold
		// objects they may see some, but proxy 0 must see all 3.
	}
	if res.ProxyStats[0].Requests < 3 {
		t.Errorf("proxy 0 saw %d requests, want >= 3", res.ProxyStats[0].Requests)
	}
}

// TestSplitSourceRoundRobin: each of the n views yields exactly client k's
// round-robin share of the stream (requests k, k+n, …) and declares that
// count as its Total, including streams whose length n does not divide.
func TestSplitSourceRoundRobin(t *testing.T) {
	for _, n := range []int{2, 3, 64} {
		for _, length := range []int{0, 1, n - 1, n, 5*n + 1, 1000} {
			objs := make([]ids.ObjectID, length)
			for i := range objs {
				objs[i] = ids.ObjectID(1000 + i)
			}
			parts, err := splitSource(trace.NewSliceSource(objs), n, noHint)
			if err != nil {
				t.Fatal(err)
			}
			if len(parts) != n {
				t.Fatalf("n=%d: %d sources", n, len(parts))
			}
			for k, p := range parts {
				var want []ids.ObjectID
				for i := k; i < length; i += n {
					want = append(want, objs[i])
				}
				total := p.Total()
				got := trace.Drain(p)
				if !slices.Equal(got, want) || total != len(want) {
					t.Errorf("n=%d length=%d client %d: Total %d, got %v, want %v", n, length, k, total, got, want)
				}
			}
		}
	}
}

// noHint is the hint of a split stream nothing prefetches for.
func noHint(ids.ObjectID) {}

// plainSource hides a source's slice, so splitSource must drain it.
type plainSource struct{ workload.Source }

// TestSplitSourceLendsSlice: a slice-backed source yields the same
// per-client streams as the same requests behind a plain workload.Source,
// from the position Next reached, and leaves the source exhausted as
// draining does. Splitting it allocates the same whatever the stream's
// length: the views share the source's slice.
func TestSplitSourceLendsSlice(t *testing.T) {
	const n = 64
	objs := make([]ids.ObjectID, 10_000)
	for i := range objs {
		objs[i] = ids.ObjectID(7*i + 3)
	}
	for _, skip := range []int{0, 1, 99} {
		lent, plain := trace.NewSliceSource(objs), plainSource{trace.NewSliceSource(objs)}
		for i := 0; i < skip; i++ {
			lent.Next()
			plain.Next()
		}
		a, err := splitSource(lent, n, noHint)
		if err != nil {
			t.Fatal(err)
		}
		b, err := splitSource(plain, n, noHint)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := lent.Next(); ok {
			t.Errorf("skip=%d: the lent source still yields requests", skip)
		}
		for k := range a {
			if a[k].Total() != b[k].Total() {
				t.Errorf("skip=%d client %d: Total %d, plain %d", skip, k, a[k].Total(), b[k].Total())
			}
			if got, want := trace.Drain(a[k]), trace.Drain(b[k]); !slices.Equal(got, want) {
				t.Errorf("skip=%d client %d: %v, plain %v", skip, k, got, want)
			}
		}
	}

	split := func(length int) (allocs, bytes float64) {
		src := trace.NewSliceSource(objs[:length])
		run := func() {
			src.Reset()
			if _, err := splitSource(src, n, noHint); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(20, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 20
	}
	shortAllocs, shortBytes := split(100)
	longAllocs, longBytes := split(len(objs))
	if longAllocs > shortAllocs {
		t.Errorf("splitting allocates %v times for %d requests, %v for 100", longAllocs, len(objs), shortAllocs)
	}
	// A copy of the longer stream would be 79 200 bytes more.
	if extra := longBytes - shortBytes; extra > 8*float64(len(objs)-100)/4 {
		t.Errorf("splitting %d requests allocates %.0f bytes more than 100 do", len(objs), extra)
	}
}
