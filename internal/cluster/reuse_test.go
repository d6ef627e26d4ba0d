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

	run := func(cfg Config, objs []ids.ObjectID) *Result {
		t.Helper()
		res, err := Run(cfg, trace.NewSliceSource(objs))
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed, res.Summary.Elapsed = 0, 0 // wall clock
		return res
	}
	first := run(b, objsB)
	resA := run(a, objsA)
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
	if again := run(b, objsB); !reflect.DeepEqual(again, first) {
		t.Errorf("run B after run A differs from run B first:\nfirst %+v\nafter %+v", first.Summary, again.Summary)
	}
}

// TestSecondRunReusesTables: the second of two reference-size runs (5
// proxies, 20k/20k/10k tables, §V.2) builds its tables from the storage the
// first released, so it allocates a small fraction of the ~37 MB the tables
// take. Under the race detector sync.Pool drops a share of what it is
// given on purpose, so there only the run itself is checked. It reads
// process-wide allocation counters, so it must not run beside parallel
// tests.
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
	objs := drainIDs(t, gen)
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
	t.Logf("first run allocated %.1f MB, second %.2f MB", float64(first)/(1<<20), float64(second)/(1<<20))
	if !raceEnabled && second > maxBytes {
		t.Errorf("second run allocated %.2f MB, want ≤ %d MB", float64(second)/(1<<20), maxBytes>>20)
	}
}
