package adc

import (
	"math"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/httpproxy"
	"github.com/adc-sim/adc/internal/ids"
)

// The spec grammar is what a -faults or -recovery flag hands either driver.
// Whatever arrives, parsing must not panic, the retired crash= key must not
// parse, a restart must follow the kill it pairs with, and a plan that a
// driver accepts must describe a schedule that driver can rely on: rates in
// [0, 1] (so never NaN or Inf), no negative or zero event time, every crash,
// link and partition endpoint a proxy of the run.

func FuzzParseFaultSpec(f *testing.F) {
	f.Add("loss=0.01,jitter=2000,seed=7,crash=0@2000000-4000000!,link=1>2:0.05")
	f.Add("crash=4@1, crash=4@2-3 ,,")
	f.Add("loss=1e-3,link=0>0:1")
	f.Add("loss")
	f.Add("crash=1@-5-7")
	f.Add("kill=p0@2s,restart=p0@4s!,kill=3@100,restart=p3@200")
	f.Add("restart=1@5s,kill=1@2s,kill=1@3s,restart=1@4s")
	f.Add("partition=p1:p2@8s+4s,partition=0:4@1ms")
	f.Add("jitter=1.5ms,link=p4>p0:0.5,seed=-3,kill=4@9223372036854775807")
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaultSpec(spec)
		if err != nil {
			return
		}
		for _, clause := range strings.Split(spec, ",") {
			if strings.HasPrefix(strings.TrimSpace(clause), "crash=") {
				t.Fatalf("spec %q parsed despite the retired crash= key", spec)
			}
		}
		for _, c := range plan.Crashes {
			if c.RestartAt != 0 && c.RestartAt <= c.At {
				t.Fatalf("spec %q paired a restart with a later kill: %+v", spec, c)
			}
		}
		ic, err := Config{Runtime: RuntimeVirtualTime, Faults: plan}.toInternal()
		if err != nil {
			t.Fatalf("spec %q parsed but did not convert: %v", spec, err)
		}
		proxy := func(n ids.NodeID) bool { return n >= 0 && int(n) < ic.NumProxies }
		unit := func(x float64) bool { return x >= 0 && x <= 1 }
		if ic.Validate() == nil {
			if ic.Faults != plan || !unit(plan.Loss) || plan.Jitter < 0 || len(plan.Partitions) > 0 {
				t.Fatalf("spec %q validated on the simulator as %+v", spec, ic.Faults)
			}
			for _, l := range plan.LinkLoss {
				if !unit(l.Rate) || !proxy(l.From) || !proxy(l.To) {
					t.Fatalf("spec %q validated on the simulator with link %+v", spec, l)
				}
			}
			for _, c := range plan.Crashes {
				if c.At <= 0 || !proxy(c.Node) {
					t.Fatalf("spec %q validated on the simulator with crash %+v", spec, c)
				}
			}
		}
		if httpproxy.CheckChaos(plan, ic.NumProxies) == nil {
			if plan.Loss != 0 || plan.Jitter != 0 || len(plan.LinkLoss) > 0 {
				t.Fatalf("spec %q accepted by the farm as %+v", spec, plan)
			}
			for _, c := range plan.Crashes {
				if c.At <= 0 || c.LoseTables || !proxy(c.Node) {
					t.Fatalf("spec %q accepted by the farm with crash %+v", spec, c)
				}
			}
			for _, p := range plan.Partitions {
				if p.At <= 0 || p.A == p.B || !proxy(p.A) || !proxy(p.B) || (p.HealAt != 0 && p.HealAt <= p.At) {
					t.Fatalf("spec %q accepted by the farm with partition %+v", spec, p)
				}
			}
		}
	})
}

func FuzzParseRecoverySpec(f *testing.F) {
	f.Add("")
	f.Add("timeout=400000,retries=8,backoff=2,ttl=1000000")
	f.Add("backoff=1e400")
	f.Add("retries=-1, ttl = 5")
	f.Add("timeout=400ms,ttl=1s")
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
