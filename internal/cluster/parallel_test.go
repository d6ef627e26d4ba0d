package cluster

import (
	"reflect"
	"testing"

	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/sim"
)

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

// TestParallelValidation pins that validation accepts every feature of the
// virtual-time engine on the golden run. Each case below was a rejection
// while a second, parallel engine existed beside it; what the features
// produce is pinned by TestEngineGoldens.
func TestParallelValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"plain parallel", func(c *Config) {}},
		{"open loop allowed", func(c *Config) { c.OpenLoopInterval = 1000 }},
		{"recovery allowed", func(c *Config) { c.Recovery = sim.DefaultRecovery() }},
		{"faults", func(c *Config) { c.Faults = &sim.FaultPlan{Loss: 0.1} }},
		{"proxy crash", func(c *Config) { c.Faults = crashes(sim.Crash{Node: 1, At: 100}) }},
		{"tracer", func(c *Config) { c.Tracer = obs.New(obs.KindInject) }},
		{"metrics every", func(c *Config) { c.MetricsEvery = 10_000 }},
		{"queued service", func(c *Config) { c.Latency = sim.LatencyModel{Service: 10, QueueService: true} }},
		{"churn", func(c *Config) { c.JoinProxyAt = []uint64{100}; c.Clients = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenConfig(RuntimeVirtualTime)
			tc.mutate(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		})
	}
}
