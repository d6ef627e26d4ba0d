package cluster

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
	"github.com/adc-sim/adc/internal/workload"
)

// runAndDump runs a fresh cluster of cfg over src and returns its Result,
// wall clock zeroed, and every agent's three tables dumped in paper order.
func runAndDump(t *testing.T, cfg Config, src workload.Source) (*Result, string) {
	t.Helper()
	c, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	res.Elapsed, res.Summary.Elapsed = 0, 0
	var dump bytes.Buffer
	for _, p := range c.ADCProxies() {
		if err := p.Policy().(*protocol.Agent).Tables().Dump(&dump, 0); err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	return res, dump.String()
}

// TestLookaheadIsInvisible: an in-memory stream hands each request to the
// proxies' Prefetch one request early and the single-table prefetches its
// next victim; both are hints, so a run over a slice-backed source must end
// exactly as the same stream does behind a streaming wrapper, which hides
// the slice: the same Result and the same tables, entry for entry. The
// cells cover the closed loop, an open loop of three Poisson clients, a
// proxy joining mid-run (its join counter must not count the peek) and a
// proxy restarted cold (its tables released and rebuilt mid-run). With one
// client the wrapper streams and gets no lookahead; with three it is
// drained and split, and looks ahead too. So every cell also runs the
// slice-backed stream on BackendList tables, which have no directory and
// take neither hint, and which end as the default backend's do
// (TestBackendDeterminism).
func TestLookaheadIsInvisible(t *testing.T) {
	gen, err := workload.New(workload.Config{TotalRequests: 20_000, PopulationSize: 2000, Alpha: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	objs := trace.Drain(gen)
	base := Config{
		Algorithm:   ADC,
		NumProxies:  4,
		Tables:      core.Config{SingleSize: 300, MultipleSize: 200, CachingSize: 100},
		Seed:        5,
		EntryPolicy: sim.EntryRandom,
		Clients:     1,
		SampleEvery: 1000,
		Runtime:     RuntimeVirtualTime,
	}
	cells := []struct {
		name  string
		tweak func(*Config)
		check func(*testing.T, *Result)
	}{
		{"closed", func(*Config) {}, nil},
		{"open-3-poisson", func(c *Config) {
			c.Clients = 3
			c.OpenLoopInterval = 2000
			c.Poisson = true
		}, nil},
		{"churn-join", func(c *Config) { c.JoinProxyAt = []uint64{5000, 12_000} }, func(t *testing.T, r *Result) {
			if len(r.ProxyStats) != 6 || r.ProxyStats[5].Requests == 0 {
				t.Fatalf("%d proxies after the joins, the last one saw %d requests; want 6 and some", len(r.ProxyStats), r.ProxyStats[len(r.ProxyStats)-1].Requests)
			}
		}},
		{"cold-restart", func(c *Config) {
			c.Recovery = sim.DefaultRecovery()
			c.Faults = &sim.FaultPlan{Crashes: []sim.Crash{
				{Node: ids.NodeID(2), At: 2_000_000, RestartAt: 4_000_000, LoseTables: true},
			}}
		}, func(t *testing.T, r *Result) {
			if r.Faults.Crashes != 1 || r.Faults.Restarts != 1 {
				t.Fatalf("crashes/restarts = %d/%d, want 1/1 inside the run", r.Faults.Crashes, r.Faults.Restarts)
			}
		}},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			cfg := base
			cell.tweak(&cfg)
			lent, lentDump := runAndDump(t, cfg, trace.NewSliceSource(objs))
			streamed, streamedDump := runAndDump(t, cfg, plainSource{trace.NewSliceSource(objs)})
			if lent.Summary.Requests != uint64(len(objs)) {
				t.Fatalf("%d of %d requests completed", lent.Summary.Requests, len(objs))
			}
			if cell.check != nil {
				cell.check(t, lent)
			}
			if !reflect.DeepEqual(lent, streamed) {
				t.Errorf("results differ:\nslice-backed %+v\nstreamed     %+v", lent.Summary, streamed.Summary)
			}
			if lentDump != streamedDump {
				t.Error("table dumps differ between the slice-backed and the streamed run")
			}
			cfg.Tables.Backend = core.BackendList
			listed, listedDump := runAndDump(t, cfg, trace.NewSliceSource(objs))
			if !reflect.DeepEqual(lent, listed) || lentDump != listedDump {
				t.Errorf("the run differs from the same run on BackendList tables, which take no hint:\nbtree %+v\nlist  %+v", lent.Summary, listed.Summary)
			}
		})
	}
}

// TestCursorRunMatchesGenerator: experiments replay a materialized Trace
// through a trace.SliceSource over its Objects, which lends its slice
// (workload.SliceBacked); a run over it must equal a run over the live
// generator the trace was drawn from, with one client and with several.
func TestCursorRunMatchesGenerator(t *testing.T) {
	wcfg := workload.Config{TotalRequests: 12_000, PopulationSize: 1500, Alpha: 0.8, Seed: 9}
	tr, err := workload.Materialize(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, clients := range []int{1, 4} {
		cfg := Config{
			Algorithm:   ADC,
			NumProxies:  4,
			Tables:      core.Config{SingleSize: 300, MultipleSize: 200, CachingSize: 100},
			Seed:        2,
			Clients:     clients,
			SampleEvery: 1000,
			Runtime:     RuntimeVirtualTime,
		}
		gen, err := workload.New(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		live, liveDump := runAndDump(t, cfg, gen)
		cur, curDump := runAndDump(t, cfg, trace.NewSliceSource(tr.Objects()))
		if !reflect.DeepEqual(cur, live) || curDump != liveDump {
			t.Errorf("clients=%d: the cursor run differs from the generator run:\ncursor    %+v\ngenerator %+v", clients, cur.Summary, live.Summary)
		}
	}
}

// TestOpenLoopRecoveryInWindows: an open-loop run with recovery arms a
// retry timer per attempt at the clients and pending sweeps at the
// proxies; a sweep re-arms for the next pass due, often inside the
// lookahead window that armed it, as are the lockstep clients' 900-tick
// arrival ticks. Delivered with every window forced onto two goroutines,
// the run must end exactly as the one-event-at-a-time run (one processor,
// no windows): the same Result and the same tables, entry for entry.
func TestOpenLoopRecoveryInWindows(t *testing.T) {
	cfg := goldenConfig(RuntimeVirtualTime)
	lockstep(&cfg)
	cfg.Recovery = sim.DefaultRecovery()
	cfg.Recovery.PendingTTL = 200_000 // some passes outlive it and expire
	prev := runtime.GOMAXPROCS(1)
	want, wantTables := runAndDump(t, cfg, trace.NewSliceSource(goldenTrace()))
	runtime.GOMAXPROCS(prev)
	defer sim.ForceWindows()()
	got, gotTables := runAndDump(t, cfg, trace.NewSliceSource(goldenTrace()))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windowed run differs:\n got %+v\nwant %+v", got, want)
	}
	if gotTables != wantTables {
		t.Error("windowed run left different tables")
	}
	if got.Summary.Requests != 4000 || expiredPending(got) == 0 {
		t.Errorf("%d requests answered, %d pending passes expired; want 4000 and some", got.Summary.Requests, expiredPending(got))
	}
}
