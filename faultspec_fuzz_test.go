package adc

import (
	"math"
	"testing"
)

// The spec grammar is what a -faults or -recovery flag hands the engine at
// every shard count. Whatever arrives, parsing must not panic, and a spec
// that parses must either be refused by validation or describe a schedule
// the engine can rely on: rates in [0, 1] (so never NaN or Inf), no negative
// time, every node a proxy of the run and the one the spec named.

func FuzzParseFaultSpec(f *testing.F) {
	f.Add("loss=0.01,jitter=2000,seed=7,crash=0@2000000-4000000!,link=1>2:0.05")
	f.Add("crash=4@1, crash=4@2-3 ,,")
	f.Add("loss=1e-3,link=0>0:1")
	f.Add("loss")
	f.Add("crash=1@-5-7")
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		ic, err := Config{Runtime: RuntimeVirtualTime, Faults: plan}.toInternal()
		if err != nil {
			t.Fatalf("spec %q parsed but did not convert: %v", spec, err)
		}
		if ic.Validate() != nil {
			return
		}
		got := ic.Faults
		unit := func(x float64) bool { return x >= 0 && x <= 1 }
		if !unit(got.Loss) || got.Jitter < 0 {
			t.Fatalf("spec %q validated with loss %v jitter %d", spec, got.Loss, got.Jitter)
		}
		for i, l := range got.LinkLoss {
			if !unit(l.Rate) || int64(l.From) != int64(plan.LinkLoss[i].FromProxy) || int64(l.To) != int64(plan.LinkLoss[i].ToProxy) {
				t.Fatalf("spec %q validated with link %+v from %+v", spec, l, plan.LinkLoss[i])
			}
		}
		for i, c := range got.Crashes {
			if c.At <= 0 || c.RestartAt < 0 || !c.Node.IsProxy() || int(c.Node) >= ic.NumProxies || int64(c.Node) != int64(plan.Crashes[i].Proxy) {
				t.Fatalf("spec %q validated with crash %+v from %+v", spec, c, plan.Crashes[i])
			}
		}
	})
}

func FuzzParseRecoverySpec(f *testing.F) {
	f.Add("")
	f.Add("timeout=400000,retries=8,backoff=2,ttl=1000000")
	f.Add("backoff=1e400")
	f.Add("retries=-1, ttl = 5")
	f.Fuzz(func(t *testing.T, spec string) {
		rec, err := ParseRecoverySpec(spec)
		if err != nil {
			return
		}
		ic, err := Config{Runtime: RuntimeVirtualTime, Recovery: rec}.toInternal()
		if err != nil {
			t.Fatalf("spec %q parsed but did not convert: %v", spec, err)
		}
		if ic.Validate() != nil {
			return
		}
		got := ic.Recovery.Normalize()
		if !got.Enabled || got.Timeout <= 0 || got.MaxRetries < 0 || got.PendingTTL <= 0 ||
			!(got.Backoff >= 1) || math.IsInf(got.Backoff, 0) {
			t.Fatalf("spec %q validated as %+v", spec, got)
		}
	})
}
