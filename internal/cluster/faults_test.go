package cluster

import (
	"reflect"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// goldenTrace regenerates the fixed 4000-request stream the determinism
// tests run against.
func goldenTrace() []ids.ObjectID {
	objs := make([]ids.ObjectID, 4000)
	state := uint64(0xDEADBEEFCAFE)
	for i := range objs {
		state = state*6364136223846793005 + 1442695040888963407
		objs[i] = ids.ObjectID(state % 800)
	}
	return objs
}

func goldenConfig(rt Runtime) Config {
	return Config{
		Algorithm:   ADC,
		NumProxies:  5,
		Tables:      core.Config{SingleSize: 200, MultipleSize: 200, CachingSize: 100},
		Seed:        42,
		Clients:     3,
		SampleEvery: 500,
		Runtime:     rt,
	}
}

// TestGoldenDeterminism pins the reference runs to hardcoded values
// captured before the fault-injection layer landed. It is the
// byte-identical guard for the default path: with Recovery off and no
// FaultPlan, every number — summaries, series length, per-proxy stats —
// must match the pre-fault-layer build exactly. If this test fails, new
// code leaked into the lossless path (an extra rng draw, a reordered stat,
// a stray timer event).
func TestGoldenDeterminism(t *testing.T) {
	type golden struct {
		delivered, requests, hits uint64
		hitRate, hops, pathLen    float64
		meanResponse, maxResponse float64
		origin                    uint64
		series                    int
		proxy0                    map[string]uint64
	}
	want := map[Runtime]golden{
		RuntimeSequential: {
			delivered: 23602, requests: 4000, hits: 1284,
			hitRate: 0.3210, hops: 5.9005, pathLen: 1.95025,
			origin: 2716, series: 2,
			proxy0: map[string]uint64{
				"Requests": 1845, "LocalHits": 251, "ForwardLearned": 255,
				"ForwardRandom": 734, "ForwardOrigin": 605, "LoopsDetected": 282,
				"RepliesSeen": 1594, "CacheInsertions": 354, "CacheEvictions": 254,
			},
		},
		RuntimeVirtualTime: {
			delivered: 23482, requests: 4000, hits: 1290,
			hitRate: 0.3225, hops: 5.8705, pathLen: 1.93525,
			meanResponse: 103492.05, maxResponse: 211400,
			origin: 2710, series: 2,
			proxy0: map[string]uint64{
				"Requests": 1829, "LocalHits": 261, "ForwardLearned": 275,
				"ForwardRandom": 713, "ForwardOrigin": 580, "LoopsDetected": 265,
				"RepliesSeen": 1568, "CacheInsertions": 344, "CacheEvictions": 244,
			},
		},
	}
	const eps = 1e-9
	for rt, g := range want {
		t.Run(rt.String(), func(t *testing.T) {
			c, err := New(goldenConfig(rt), trace.NewSliceSource(goldenTrace()))
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range c.ADCProxies() {
				if err := p.Tables().CheckInvariants(); err != nil {
					t.Errorf("proxy %d tables: %v", i, err)
				}
			}
			s := res.Summary
			if res.Delivered != g.delivered {
				t.Errorf("delivered = %d, want %d", res.Delivered, g.delivered)
			}
			if s.Requests != g.requests || s.Hits != g.hits {
				t.Errorf("requests/hits = %d/%d, want %d/%d", s.Requests, s.Hits, g.requests, g.hits)
			}
			if diff := s.HitRate - g.hitRate; diff < -eps || diff > eps {
				t.Errorf("hit rate = %v, want %v", s.HitRate, g.hitRate)
			}
			if diff := s.Hops - g.hops; diff < -eps || diff > eps {
				t.Errorf("hops = %v, want %v", s.Hops, g.hops)
			}
			if diff := s.PathLen - g.pathLen; diff < -eps || diff > eps {
				t.Errorf("path length = %v, want %v", s.PathLen, g.pathLen)
			}
			if g.meanResponse != 0 {
				if diff := s.MeanResponse - g.meanResponse; diff < -eps || diff > eps {
					t.Errorf("mean response = %v, want %v", s.MeanResponse, g.meanResponse)
				}
				if s.MaxResponse != g.maxResponse {
					t.Errorf("max response = %v, want %v", s.MaxResponse, g.maxResponse)
				}
			}
			if res.OriginResolved != g.origin {
				t.Errorf("origin resolved = %d, want %d", res.OriginResolved, g.origin)
			}
			if len(res.Series) != g.series {
				t.Errorf("series length = %d, want %d", len(res.Series), g.series)
			}
			// No fault layer ran: its observables must be zero/absent.
			if s.Timeouts != 0 || s.Retries != 0 || s.Abandoned != 0 || s.StaleReplies != 0 {
				t.Errorf("recovery counters non-zero in lossless run: %+v", s)
			}
			if res.Dropped != 0 || res.LeakedPending != 0 {
				t.Errorf("dropped=%d leaked=%d, want 0/0", res.Dropped, res.LeakedPending)
			}
			if res.Faults != (sim.FaultStats{}) {
				t.Errorf("fault stats non-zero: %+v", res.Faults)
			}
			p0 := res.ProxyStats[0]
			got := map[string]uint64{
				"Requests": p0.Requests, "LocalHits": p0.LocalHits,
				"ForwardLearned": p0.ForwardLearned, "ForwardRandom": p0.ForwardRandom,
				"ForwardOrigin": p0.ForwardOrigin, "LoopsDetected": p0.LoopsDetected,
				"RepliesSeen": p0.RepliesSeen, "CacheInsertions": p0.CacheInsertions,
				"CacheEvictions": p0.CacheEvictions,
			}
			if !reflect.DeepEqual(got, g.proxy0) {
				t.Errorf("proxy 0 stats = %v, want %v", got, g.proxy0)
			}
			if p0.ExpiredPending != 0 || p0.StaleInvalidated != 0 || p0.UnexpectedReplies != 0 {
				t.Errorf("proxy 0 fault counters non-zero: %+v", p0)
			}
		})
	}
}

// TestFaultPlanDeterminism asserts that a seeded fault plan is a pure
// function of its configuration: identical plans produce identical drops,
// crashes, metrics and leaks, and a different fault seed produces a
// different drop sequence over the same workload.
func TestFaultPlanDeterminism(t *testing.T) {
	run := func(faultSeed int64, recovery bool) *Result {
		cfg := goldenConfig(RuntimeVirtualTime)
		cfg.Faults = goldenFaultPlan()
		cfg.Faults.Seed = faultSeed
		if recovery {
			cfg.Recovery = sim.DefaultRecovery()
		}
		res, err := Run(cfg, trace.NewSliceSource(goldenTrace()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, recovery := range []bool{false, true} {
		name := "no-recovery"
		if recovery {
			name = "recovery"
		}
		t.Run(name, func(t *testing.T) {
			a, b := run(7, recovery), run(7, recovery)
			if a.Faults != b.Faults {
				t.Errorf("fault stats differ:\nrun1 %+v\nrun2 %+v", a.Faults, b.Faults)
			}
			if a.Dropped == 0 {
				t.Error("fault plan dropped nothing; the test exercises no faults")
			}
			if a.Faults.Crashes != 1 || a.Faults.Restarts != 1 {
				t.Errorf("crashes/restarts = %d/%d, want 1/1", a.Faults.Crashes, a.Faults.Restarts)
			}
			if a.Dropped != b.Dropped || a.Delivered != b.Delivered {
				t.Errorf("dropped/delivered: run1 %d/%d, run2 %d/%d",
					a.Dropped, a.Delivered, b.Dropped, b.Delivered)
			}
			if a.Injected != b.Injected || a.LeakedPending != b.LeakedPending {
				t.Errorf("injected/leaked: run1 %d/%d, run2 %d/%d",
					a.Injected, a.LeakedPending, b.Injected, b.LeakedPending)
			}
			sa, sb := a.Summary, b.Summary
			sa.Elapsed, sb.Elapsed = 0, 0
			if sa != sb {
				t.Errorf("summaries differ:\nrun1 %+v\nrun2 %+v", sa, sb)
			}
			if !reflect.DeepEqual(a.ProxyStats, b.ProxyStats) {
				t.Errorf("proxy stats differ:\nrun1 %+v\nrun2 %+v", a.ProxyStats, b.ProxyStats)
			}

			other := run(8, recovery)
			if other.Dropped == a.Dropped && other.Delivered == a.Delivered {
				t.Errorf("different fault seeds produced identical drop sequences (dropped=%d delivered=%d)",
					a.Dropped, a.Delivered)
			}
		})
	}
}

// TestRecoveryClosedLoop is the acceptance run: ADC with the recovery
// protocol on under 1% i.i.d. loss must complete every logical request —
// no stranded chains, no abandoned requests, no leaked pending state on
// any proxy.
func TestRecoveryClosedLoop(t *testing.T) {
	cfg := goldenConfig(RuntimeVirtualTime)
	cfg.Faults = &sim.FaultPlan{Seed: 42, Loss: 0.01}
	rec := sim.DefaultRecovery()
	rec.MaxRetries = 25 // generous budget: no request may be abandoned
	cfg.Recovery = rec

	cl, err := New(cfg, trace.NewSliceSource(goldenTrace()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("no messages dropped; the test exercises no loss")
	}
	if res.Summary.Requests != 4000 || res.Injected != 4000 {
		t.Errorf("requests/injected = %d/%d, want 4000/4000", res.Summary.Requests, res.Injected)
	}
	if res.Completion != 1 {
		t.Errorf("completion = %v, want 1", res.Completion)
	}
	if res.Summary.Abandoned != 0 {
		t.Errorf("abandoned = %d, want 0", res.Summary.Abandoned)
	}
	if res.Summary.Retries == 0 {
		t.Error("retries = 0; recovery never retransmitted despite drops")
	}
	if res.LeakedPending != 0 {
		t.Errorf("leaked pending = %d, want 0", res.LeakedPending)
	}
	for i, p := range cl.ADCProxies() {
		if n := p.PendingLen(); n != 0 {
			t.Errorf("proxy %d: %d pending entries left at run end", i, n)
		}
	}
}

// TestValidateFaults covers the configuration constraints.
func TestValidateFaults(t *testing.T) {
	base := goldenConfig(RuntimeVirtualTime)
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"plain vtime", func(c *Config) {}, true},
		{"loss on vtime", func(c *Config) {
			c.Faults = &sim.FaultPlan{Loss: 0.1}
		}, true},
		{"loss on sequential", func(c *Config) {
			c.Runtime = RuntimeSequential
			c.Faults = &sim.FaultPlan{Loss: 0.1}
		}, false},
		{"recovery on sequential", func(c *Config) {
			c.Runtime = RuntimeSequential
			c.Recovery = sim.DefaultRecovery()
		}, false},
		{"loss out of range", func(c *Config) {
			c.Faults = &sim.FaultPlan{Loss: 1.5}
		}, false},
		{"crash out of range", func(c *Config) {
			c.CrashProxyAt = []ProxyCrash{{Proxy: 9, At: 100}}
		}, false},
		{"crash on carp", func(c *Config) {
			c.Algorithm = CARP
			c.Tables = core.Config{CachingSize: 100}
			c.CrashProxyAt = []ProxyCrash{{Proxy: 0, At: 100}}
		}, false},
		{"restart without crash", func(c *Config) {
			c.RestartProxyAt = []ProxyRestart{{Proxy: 0, At: 100}}
		}, false},
		{"restart before crash", func(c *Config) {
			c.CrashProxyAt = []ProxyCrash{{Proxy: 0, At: 200}}
			c.RestartProxyAt = []ProxyRestart{{Proxy: 0, At: 100}}
		}, false},
		{"crash restart pair", func(c *Config) {
			c.CrashProxyAt = []ProxyCrash{{Proxy: 0, At: 100}}
			c.RestartProxyAt = []ProxyRestart{{Proxy: 0, At: 300}}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("expected a validation error, got nil")
			}
		})
	}
}

// TestGoldenReplicationDeterminism is TestGoldenDeterminism's replication-on
// twin: no benchmark workload runs the controller, so its behaviour is held
// by constants instead. The values were recorded at the commit before the
// protocol core was extracted (694dec4) with a hot threshold low enough that
// the uniform golden trace exercises pushes, adopted-replica hits and
// cold-replica drops; any reordered table call, missed track/untrack or extra
// rng draw in the controller moves them.
func TestGoldenReplicationDeterminism(t *testing.T) {
	type golden struct {
		delivered, hits, origin uint64
		hops                    float64
		pushes, repHits, drops  uint64 // summed over all proxies
		proxy0                  metrics.ProxyStats
	}
	want := map[Runtime]golden{
		RuntimeSequential: {
			delivered: 23838, hits: 1240, origin: 2760, hops: 5.9595,
			pushes: 178, repHits: 14, drops: 167,
			proxy0: metrics.ProxyStats{
				Requests: 1888, LocalHits: 275, ForwardLearned: 247,
				ForwardRandom: 739, ForwardOrigin: 627, LoopsDetected: 279,
				RepliesSeen: 1613, CacheInsertions: 387, CacheEvictions: 287,
				ReplicaPushes: 43,
			},
		},
		RuntimeVirtualTime: {
			delivered: 23698, hits: 1227, origin: 2773, hops: 5.9245,
			pushes: 199, repHits: 16, drops: 178,
			proxy0: metrics.ProxyStats{
				Requests: 1842, LocalHits: 250, ForwardLearned: 262,
				ForwardRandom: 736, ForwardOrigin: 594, LoopsDetected: 272,
				RepliesSeen: 1592, CacheInsertions: 368, CacheEvictions: 268,
				ReplicaPushes: 32, ReplicaHits: 3,
			},
		},
	}
	for rt, g := range want {
		t.Run(rt.String(), func(t *testing.T) {
			cfg := goldenConfig(rt)
			cfg.Replication = protocol.Replication{Enabled: true, HotThreshold: 2, MaxReplicas: 3, Window: 256}
			res, err := Run(cfg, trace.NewSliceSource(goldenTrace()))
			if err != nil {
				t.Fatal(err)
			}
			s := res.Summary
			if res.Delivered != g.delivered || s.Hits != g.hits || res.OriginResolved != g.origin {
				t.Errorf("delivered/hits/origin = %d/%d/%d, want %d/%d/%d",
					res.Delivered, s.Hits, res.OriginResolved, g.delivered, g.hits, g.origin)
			}
			if diff := s.Hops - g.hops; diff < -1e-9 || diff > 1e-9 {
				t.Errorf("hops = %v, want %v", s.Hops, g.hops)
			}
			var pushes, repHits, drops uint64
			for _, p := range res.ProxyStats {
				pushes += p.ReplicaPushes
				repHits += p.ReplicaHits
				drops += p.ReplicaDrops
			}
			if pushes != g.pushes || repHits != g.repHits || drops != g.drops {
				t.Errorf("pushes/replica hits/drops = %d/%d/%d, want %d/%d/%d",
					pushes, repHits, drops, g.pushes, g.repHits, g.drops)
			}
			if res.ProxyStats[0] != g.proxy0 {
				t.Errorf("proxy 0 stats = %+v, want %+v", res.ProxyStats[0], g.proxy0)
			}
		})
	}
}
