package cluster

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
	"github.com/adc-sim/adc/internal/workload"
)

// drainIDs materializes src, so a run's source allocates nothing.
func drainIDs(t *testing.T, src workload.Source) []ids.ObjectID {
	t.Helper()
	objs := make([]ids.ObjectID, 0, src.Total())
	for {
		obj, ok := src.Next()
		if !ok {
			return objs
		}
		objs = append(objs, obj)
	}
}

// runReplay runs cfg over objs through Run, which releases what the run
// held, with the wall-clock fields zeroed so two Results compare equal.
func runReplay(t *testing.T, cfg Config, objs []ids.ObjectID) *Result {
	t.Helper()
	res, err := Run(cfg, trace.NewSliceSource(objs))
	if err != nil {
		t.Fatal(err)
	}
	res.Elapsed, res.Summary.Elapsed = 0, 0 // wall clock
	return res
}

// TestRunAfterReleasedRunMatchesFreshRun: Run releases each run's tables
// for the next run to reuse. A run that drives every table path — replica
// sets behind entries, a crashed proxy restarted cold onto a second Tables —
// followed by a plain run of another seed on the same table sizes must
// leave that run's Result exactly as it reads when it runs first.
func TestRunAfterReleasedRunMatchesFreshRun(t *testing.T) {
	plan, err := sim.ParseFaultSpec("kill=p1@500ms,restart=p1@1s!,kill=p2@1500ms,restart=p2@2s")
	if err != nil {
		t.Fatal(err)
	}
	a := replicationScenario(true)
	a.Seed = 1
	a.Faults = plan
	b := replicationScenario(false)
	b.Seed = 2
	objsA, objsB := drainIDs(t, replicationShift(t, 1)), drainIDs(t, replicationShift(t, 2))

	first := runReplay(t, b, objsB)
	resA := runReplay(t, a, objsA)
	if resA.Faults.Crashes != 2 || resA.Faults.Restarts != 2 {
		t.Fatalf("run A: crashes/restarts = %d/%d, want 2/2 inside the run", resA.Faults.Crashes, resA.Faults.Restarts)
	}
	var pushes uint64
	for _, s := range resA.ProxyStats {
		pushes += s.ReplicaPushes
	}
	if pushes == 0 {
		t.Fatal("run A pushed no replica; it leaves no replica set behind")
	}
	if again := runReplay(t, b, objsB); !reflect.DeepEqual(again, first) {
		t.Errorf("run B after run A differs from run B first:\nfirst %+v\nafter %+v", first.Summary, again.Summary)
	}
}

// TestRunAfterLossyRunMatchesFreshRun: Run also releases each proxy's
// pending-pass cells and the engine's event lanes and message freelist. A
// run that fills them on every path — open-loop clients retransmitting
// under recovery, messages lost on the wire and to a proxy that crashes and
// restarts cold (which releases its pending passes mid-run), passes that
// expire, the heap lane's injection, retry and sweep timers — followed by a
// plain run must leave that run's Result exactly as it reads when it runs
// first.
func TestRunAfterLossyRunMatchesFreshRun(t *testing.T) {
	plan, err := sim.ParseFaultSpec("loss=0.02,kill=p1@500ms,restart=p1@1s!")
	if err != nil {
		t.Fatal(err)
	}
	a := replicationScenario(false)
	a.Seed = 1
	a.Faults = plan
	a.Recovery = sim.DefaultRecovery()
	b := replicationScenario(false)
	b.Seed = 2
	objsA, objsB := drainIDs(t, replicationShift(t, 1)), drainIDs(t, replicationShift(t, 2))

	first := runReplay(t, b, objsB)
	resA := runReplay(t, a, objsA)
	var expired uint64
	for _, s := range resA.ProxyStats {
		expired += s.ExpiredPending
	}
	switch {
	case resA.Faults.LossDrops == 0 || resA.Faults.CrashDrops == 0:
		t.Fatalf("run A lost %d messages on the wire and %d to the crash, want both > 0", resA.Faults.LossDrops, resA.Faults.CrashDrops)
	case resA.Faults.Restarts != 1:
		t.Fatalf("run A restarted %d proxies, want 1", resA.Faults.Restarts)
	case resA.Summary.Retries == 0 || expired == 0:
		t.Fatalf("run A retransmitted %d requests and expired %d passes, want both > 0", resA.Summary.Retries, expired)
	}
	if again := runReplay(t, b, objsB); !reflect.DeepEqual(again, first) {
		t.Errorf("run B after run A differs from run B first:\nfirst %+v\nafter %+v", first.Summary, again.Summary)
	}
}

// secondRunBytes returns the bytes the second of two identical Runs of cfg
// over objs allocates, counted from the process-wide allocation counter, so
// a test that calls it must not run beside parallel tests.
func secondRunBytes(t *testing.T, cfg Config, objs []ids.ObjectID) uint64 {
	t.Helper()
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg, trace.NewSliceSource(objs))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Requests != uint64(len(objs)) {
			t.Fatalf("%d of %d requests completed", res.Summary.Requests, len(objs))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := allocated(), allocated()
	t.Logf("first run allocated %.2f MB, second %.2f MB", float64(first)/(1<<20), float64(second)/(1<<20))
	return second
}

// TestSecondRunReusesTables: the second of two reference-size runs (5
// proxies, 20k/20k/10k tables, §V.2) builds its tables from the storage the
// first released, so it allocates a small fraction of the ~37 MB the tables
// take.
func TestSecondRunReusesTables(t *testing.T) {
	const maxBytes = 2 << 20
	cfg := Config{
		Algorithm:  ADC,
		NumProxies: 5,
		Tables:     core.Config{SingleSize: 20_000, MultipleSize: 20_000, CachingSize: 10_000},
		Seed:       1,
		Runtime:    RuntimeVirtualTime,
	}
	gen, err := workload.New(workload.Config{
		TotalRequests: 100_000, PopulationSize: 10_000, Alpha: 0.8,
		OneTimerProb: 0.3, FillFraction: 0.25, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second := secondRunBytes(t, cfg, drainIDs(t, gen)); second > maxBytes {
		t.Errorf("second run allocated %.2f MB, want ≤ %d MB", float64(second)/(1<<20), maxBytes>>20)
	}
}

// TestSecondShiftOpenRunReusesRunState: the second of two identical
// sim_shift_open-shaped runs (shiftOpenConfig, 100 000 requests) takes the
// proxies' pending-pass cells, the event lanes and the message freelist the
// first released, as well as its tables, so it allocates about what its 64
// clients hold — collectors, histograms, random sources — and nothing that
// grows with requests.
func TestSecondShiftOpenRunReusesRunState(t *testing.T) {
	const maxBytes = 3 << 19 // 1.5 MB
	src, err := shiftOpenStream(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if second := secondRunBytes(t, shiftOpenConfig(), drainIDs(t, src)); second > maxBytes {
		t.Errorf("second run allocated %.2f MB, want ≤ 1.5 MB", float64(second)/(1<<20))
	}
}
