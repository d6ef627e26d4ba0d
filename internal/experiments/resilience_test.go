package experiments

import (
	"reflect"
	"testing"

	"github.com/adc-sim/adc/internal/sim"
)

// TestLossSweepParallelMatchesSequential is the regression test for the
// pooled-run fault-counter plumbing: every counter a LossPoint carries —
// Dropped, Timeouts, Retries, Abandoned, LeakedPending — must surface
// identically whether the sweep's runs share a worker pool or execute
// sequentially. A pooled run that read counters from the wrong cluster (or
// from a cluster still running) would disagree here.
func TestLossSweepParallelMatchesSequential(t *testing.T) {
	rates := []float64{0, 0.02}
	p := tinyProfile()
	p.Parallelism = 1
	want, err := LossSweep(p, rates, sim.Recovery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Points) != 2*len(rates) {
		t.Fatalf("%d points, want %d", len(want.Points), 2*len(rates))
	}
	// The lossy recovery arm must actually exercise the fault counters,
	// or this test proves nothing about them.
	lossyRec := want.Points[3]
	if !lossyRec.Recovery || lossyRec.Loss != 0.02 {
		t.Fatalf("point 3 = %+v, want the loss=0.02 recovery arm", lossyRec)
	}
	if lossyRec.Dropped == 0 || lossyRec.Retries == 0 {
		t.Fatalf("lossy recovery arm has zero fault activity (%+v); widen the workload", lossyRec)
	}

	for _, workers := range []int{2, 4} {
		p.Parallelism = workers
		got, err := LossSweep(p, rates, sim.Recovery{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got.Points), len(want.Points))
		}
		for i := range want.Points {
			if got.Points[i] != want.Points[i] {
				t.Errorf("workers=%d point %d: got %+v, want %+v", workers, i, got.Points[i], want.Points[i])
			}
		}
	}
}

// TestShardsReachEveryExperiment: Profile.Shards used to be cleared for the
// experiments that need faults, recovery, tracing or open-loop response
// times; it now reaches them, and every point must come out identical to
// the sequential run.
func TestShardsReachEveryExperiment(t *testing.T) {
	seq := tinyProfile()
	seq.Parallelism = 1
	sharded := seq
	sharded.Shards = 3

	run := func(p Profile) []any {
		loss, err := LossSweep(p, []float64{0, 0.02}, sim.Recovery{})
		if err != nil {
			t.Fatal(err)
		}
		crash, err := CrashRecovery(p, sim.Recovery{})
		if err != nil {
			t.Fatal(err)
		}
		conv, err := ConvergenceSweep(p, ConvergenceOptions{Sizes: []int{5_000}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ResponseTime(p, ResponseOptions{OpenLoopInterval: 20_000})
		if err != nil {
			t.Fatal(err)
		}
		return []any{loss.Points, *crash, conv, *resp}
	}
	want, got := run(seq), run(sharded)
	for i, name := range []string{"loss sweep", "crash recovery", "convergence", "response time"} {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%s differs at Shards=3:\n got %+v\nwant %+v", name, got[i], want[i])
		}
	}
}
