package cluster

import (
	"reflect"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/trace"
)

// TestRunDeterminism asserts that two identically configured runs produce
// identical results. With multiple clients sharing the proxies' state and
// random streams, the Starter firing order is observable: engines must
// start clients in ascending NodeID order, not map-iteration order.
func TestRunDeterminism(t *testing.T) {
	for _, rt := range []Runtime{RuntimeSequential, RuntimeVirtualTime} {
		t.Run(rt.String(), func(t *testing.T) {
			objs := make([]ids.ObjectID, 4000)
			state := uint64(0xDEADBEEFCAFE)
			for i := range objs {
				state = state*6364136223846793005 + 1442695040888963407
				objs[i] = ids.ObjectID(state % 800)
			}
			run := func() *Result {
				res, err := Run(Config{
					Algorithm:   ADC,
					NumProxies:  5,
					Tables:      core.Config{SingleSize: 200, MultipleSize: 200, CachingSize: 100},
					Seed:        42,
					Clients:     3,
					SampleEvery: 500,
					Runtime:     rt,
				}, trace.NewSliceSource(objs))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			a, b := run(), run()
			if a.Delivered == 0 || a.Delivered != b.Delivered {
				t.Errorf("delivered: run1 %d, run2 %d", a.Delivered, b.Delivered)
			}
			sa, sb := a.Summary, b.Summary
			sa.Elapsed, sb.Elapsed = 0, 0 // wall clock, legitimately differs
			if sa != sb {
				t.Errorf("summaries differ:\nrun1 %+v\nrun2 %+v", sa, sb)
			}
			if !reflect.DeepEqual(a.Series, b.Series) {
				t.Error("time series differ between identical runs")
			}
			if !reflect.DeepEqual(a.ProxyStats, b.ProxyStats) {
				t.Errorf("proxy stats differ:\nrun1 %+v\nrun2 %+v", a.ProxyStats, b.ProxyStats)
			}
		})
	}
}

// TestBackendDeterminism asserts that the ordered-table backend is
// unobservable in simulation results: the default btree (with the unified
// directory), the paper's sorted slice and its linked list must produce
// byte-identical summaries, time series and per-proxy statistics. This is
// the guard that lets the backend change default without perturbing any
// paper-reproduction number.
func TestBackendDeterminism(t *testing.T) {
	objs := make([]ids.ObjectID, 4000)
	state := uint64(0xDEADBEEFCAFE)
	for i := range objs {
		state = state*6364136223846793005 + 1442695040888963407
		objs[i] = ids.ObjectID(state % 800)
	}
	run := func(backend core.Backend) *Result {
		res, err := Run(Config{
			Algorithm:  ADC,
			NumProxies: 5,
			Tables: core.Config{
				SingleSize: 200, MultipleSize: 200, CachingSize: 100,
				Backend: backend,
			},
			Seed:        42,
			Clients:     3,
			SampleEvery: 500,
		}, trace.NewSliceSource(objs))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ref := run(core.BackendSlice)
	for _, backend := range []core.Backend{core.BackendBTree, core.BackendList} {
		t.Run(backend.String(), func(t *testing.T) {
			got := run(backend)
			sr, sg := ref.Summary, got.Summary
			sr.Elapsed, sg.Elapsed = 0, 0
			if sr != sg {
				t.Errorf("summaries differ:\nslice %+v\n%s %+v", sr, backend, sg)
			}
			if !reflect.DeepEqual(ref.Series, got.Series) {
				t.Error("time series differ across backends")
			}
			if !reflect.DeepEqual(ref.ProxyStats, got.ProxyStats) {
				t.Errorf("proxy stats differ:\nslice %+v\n%s %+v", ref.ProxyStats, backend, got.ProxyStats)
			}
		})
	}
}
