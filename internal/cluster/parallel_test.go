package cluster

import (
	"math"
	"reflect"
	"testing"

	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// parallelShardCounts are the widths the acceptance criterion names.
var parallelShardCounts = []int{1, 2, 4, 8}

// requireSameRunResult compares every deterministic field of two Results
// (Elapsed is wall clock and legitimately differs).
func requireSameRunResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	sw, sg := want.Summary, got.Summary
	sw.Elapsed, sg.Elapsed = 0, 0
	if sw != sg {
		t.Errorf("%s: summaries differ:\nwant %+v\n got %+v", label, sw, sg)
	}
	if !reflect.DeepEqual(want.Series, got.Series) {
		t.Errorf("%s: time series differ", label)
	}
	if !reflect.DeepEqual(want.ProxyStats, got.ProxyStats) {
		t.Errorf("%s: proxy stats differ:\nwant %+v\n got %+v", label, want.ProxyStats, got.ProxyStats)
	}
	if want.Delivered != got.Delivered {
		t.Errorf("%s: delivered = %d, want %d", label, got.Delivered, want.Delivered)
	}
	if want.OriginResolved != got.OriginResolved {
		t.Errorf("%s: origin resolved = %d, want %d", label, got.OriginResolved, want.OriginResolved)
	}
	if want.Injected != got.Injected || want.Completion != got.Completion {
		t.Errorf("%s: injected/completion = %d/%v, want %d/%v",
			label, got.Injected, got.Completion, want.Injected, want.Completion)
	}
	if want.LeakedPending != got.LeakedPending {
		t.Errorf("%s: leaked pending = %d, want %d", label, got.LeakedPending, want.LeakedPending)
	}
}

// TestParallelGoldenDeterminism is the sharding gate: the virtual-time
// engine must reproduce its sequential golden run byte for byte at
// shards ∈ {1, 2, 4, 8}. The headline numbers are additionally pinned
// against the same hardcoded constants TestGoldenDeterminism guards, so a
// drift at every shard count at once cannot slip through the comparison.
func TestParallelGoldenDeterminism(t *testing.T) {
	oracle, err := Run(goldenConfig(RuntimeVirtualTime), trace.NewSliceSource(goldenTrace()))
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	if oracle.Delivered != 23482 || oracle.Summary.Requests != 4000 || oracle.Summary.Hits != 1290 {
		t.Fatalf("sequential oracle drifted from the golden run: delivered=%d requests=%d hits=%d",
			oracle.Delivered, oracle.Summary.Requests, oracle.Summary.Hits)
	}
	if math.Abs(oracle.Summary.MeanResponse-103492.05) > eps || oracle.Summary.MaxResponse != 211400 {
		t.Fatalf("sequential oracle drifted from the golden run: response %v/%v",
			oracle.Summary.MeanResponse, oracle.Summary.MaxResponse)
	}
	for _, shards := range parallelShardCounts {
		cfg := goldenConfig(RuntimeVirtualTime)
		cfg.Shards = shards
		res, err := Run(cfg, trace.NewSliceSource(goldenTrace()))
		if err != nil {
			t.Fatal(err)
		}
		requireSameRunResult(t, cfg.Runtime.String()+"/"+string(rune('0'+shards)), oracle, res)
	}
}

// TestParallelOpenLoopDeterminism repeats the gate under open-loop
// injection — many requests in flight and many events per timestamp,
// spread over the shards.
func TestParallelOpenLoopDeterminism(t *testing.T) {
	build := func(shards int) Config {
		cfg := goldenConfig(RuntimeVirtualTime)
		cfg.Shards = shards
		cfg.Clients = 6
		cfg.OpenLoopInterval = 900
		cfg.Poisson = true
		return cfg
	}
	oracle, err := Run(build(0), trace.NewSliceSource(goldenTrace()))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range parallelShardCounts {
		res, err := Run(build(shards), trace.NewSliceSource(goldenTrace()))
		if err != nil {
			t.Fatal(err)
		}
		requireSameRunResult(t, "open-loop", oracle, res)
	}
}

// TestParallelValidation pins what validation says about a sharded run:
// every feature the virtual-time engine has is accepted at Shards > 1 (the
// cases below were rejections while a second engine existed; what they
// produce is pinned by TestEngineGoldens), and Shards means nothing on a
// runtime without a virtual clock.
func TestParallelValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"plain parallel", func(c *Config) {}, true},
		{"explicit shards", func(c *Config) { c.Shards = 8 }, true},
		{"open loop allowed", func(c *Config) { c.OpenLoopInterval = 1000 }, true},
		{"recovery allowed", func(c *Config) { c.Recovery = sim.DefaultRecovery() }, true},
		{"negative shards", func(c *Config) { c.Shards = -1 }, false},
		{"shards on vtime", func(c *Config) { c.Shards = 2 }, true},
		{"shards on sequential", func(c *Config) { c.Runtime = RuntimeSequential }, false},
		{"faults", func(c *Config) { c.Faults = &sim.FaultPlan{Loss: 0.1} }, true},
		{"proxy crash", func(c *Config) { c.Faults = crashes(sim.Crash{Node: 1, At: 100}) }, true},
		{"tracer", func(c *Config) { c.Tracer = obs.New(obs.KindInject) }, true},
		{"metrics every", func(c *Config) { c.MetricsEvery = 10_000 }, true},
		{"queued service", func(c *Config) { c.Latency = sim.LatencyModel{Service: 10, QueueService: true} }, true},
		{"churn", func(c *Config) { c.JoinProxyAt = []uint64{100}; c.Clients = 1 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenConfig(RuntimeVirtualTime)
			cfg.Shards = 4
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
