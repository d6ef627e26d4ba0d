package cluster

import (
	"reflect"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// TestMetamorphicRelations holds two invariances the paper's protocol
// implies, as exact relations between runs of the golden trace, for every
// algorithm they hold for. No oracle is needed: a relation breaks only if
// a run depends on something it should not.
//
//   - R1, relabelling: renaming every object by a strictly increasing map
//     (id → 7919·id + 1 000 003) leaves the whole result bit-identical on
//     both runtimes. ADC learns placement from backwarding, and its tables
//     break key ties by object order, which the map preserves; hier and
//     coord do not look at labels at all. CARP and chash are exempt: they
//     compute placement from a hash of the label, so relabelling redraws
//     the partition and moves hits (their R1 holds only in distribution).
//   - R2, latency scaling: multiplying every cost of the latency model by
//     k leaves every decision alone on the virtual-time engine (events keep
//     their order, ties included), so hits, hops and per-proxy counters are
//     identical, every traced event happens at exactly k times its time,
//     and so every response time, the largest included, is exactly k times
//     longer. The summary's mean response is a floating-point running mean
//     whose rounding differs with k, so it is not compared.
func TestMetamorphicRelations(t *testing.T) {
	labelFree := map[Algorithm]bool{ADC: true, Hierarchical: true, Coordinator: true}
	for _, alg := range []Algorithm{ADC, CARP, CHash, Hierarchical, Coordinator} {
		t.Run(alg.String(), func(t *testing.T) {
			run := func(cfg Config, objs []ids.ObjectID) *Result {
				t.Helper()
				cfg.Algorithm = alg
				res, err := Run(cfg, trace.NewSliceSource(objs))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if labelFree[alg] {
				relabelled := goldenTrace()
				for i, obj := range relabelled {
					relabelled[i] = 7919*obj + 1_000_003
				}
				for _, rt := range []Runtime{RuntimeSequential, RuntimeVirtualTime} {
					want := resultDigest(run(goldenConfig(rt), goldenTrace()))
					if got := resultDigest(run(goldenConfig(rt), relabelled)); got != want {
						t.Errorf("R1 %v: relabelled digest %#x, want %#x", rt, got, want)
					}
				}
			}

			base := goldenConfig(RuntimeVirtualTime)
			base.Latency = sim.DefaultLatencyModel()
			base.Tracer = obs.New()
			want := run(base, goldenTrace())
			for _, k := range []int64{2, 3, 10} {
				cfg := base
				cfg.Tracer = obs.New()
				l := &cfg.Latency
				l.ClientProxy, l.ProxyProxy, l.ProxyOrigin, l.Service = k*l.ClientProxy, k*l.ProxyProxy, k*l.ProxyOrigin, k*l.Service
				got := run(cfg, goldenTrace())
				if got.Summary.Hits != want.Summary.Hits || got.Summary.Hops != want.Summary.Hops {
					t.Errorf("R2 ×%d: hits %d hops %v, want %d and %v",
						k, got.Summary.Hits, got.Summary.Hops, want.Summary.Hits, want.Summary.Hops)
				}
				if !reflect.DeepEqual(got.ProxyStats, want.ProxyStats) || !reflect.DeepEqual(got.Series, want.Series) {
					t.Errorf("R2 ×%d: per-proxy counters or series differ", k)
				}
				if w := float64(k) * want.Summary.MaxResponse; got.Summary.MaxResponse != w {
					t.Errorf("R2 ×%d: max response %v, want exactly %v", k, got.Summary.MaxResponse, w)
				}
				wantEv, gotEv := base.Tracer.Events(), cfg.Tracer.Events()
				if len(gotEv) != len(wantEv) {
					t.Fatalf("R2 ×%d: %d trace events, want %d", k, len(gotEv), len(wantEv))
				}
				for i, ev := range wantEv {
					ev.At *= k
					if gotEv[i] != ev {
						t.Fatalf("R2 ×%d: event %d is %+v, want %+v", k, i, gotEv[i], ev)
					}
				}
			}
		})
	}
}
