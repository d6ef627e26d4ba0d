package experiments

import (
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

// TestCrashRecovery runs the fail-stop study at 1% of paper scale: proxy 0
// crashes 40% through the trace and restarts cold at 70%, with recovery on.
// Exactly one crash and one restart apply, every request completes and no
// pending state leaks. While proxy 0 is down the survivors serve what they
// learned, so there is no dip then (BeforeHit about 0.64, DownHit about
// 0.71 at this scale); the dip is the cold restart: the first sample after
// it falls below both phase means, and the post-restart mean recovers
// from it to within 0.05 of DownHit.
func TestCrashRecovery(t *testing.T) {
	r, err := CrashRecovery(tinyProfile(), sim.Recovery{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Crashes != 1 || r.Restarts != 1 {
		t.Errorf("crashes/restarts = %d/%d, want 1/1", r.Crashes, r.Restarts)
	}
	if r.Completion != 1 || r.LeakedPending != 0 {
		t.Errorf("completion %v, leaked pending %d; want 1 and 0", r.Completion, r.LeakedPending)
	}
	if r.Dropped == 0 {
		t.Error("no message died at the crashed proxy")
	}
	if r.BeforeHit == 0 || r.DownHit == 0 {
		t.Fatalf("empty phase: BeforeHit %.4f, DownHit %.4f", r.BeforeHit, r.DownHit)
	}
	if r.AfterHit < r.DownHit-0.05 {
		t.Errorf("AfterHit %.4f more than 0.05 below DownHit %.4f: no re-convergence", r.AfterHit, r.DownHit)
	}
	// The first sample taken after the restart, against both earlier
	// phases and the rest of the run.
	restartReq := uint64(r.RestartAt / openLoopInterval)
	for _, pt := range r.Series {
		if pt.Requests >= restartReq {
			if pt.HitRate >= r.BeforeHit || pt.HitRate >= r.DownHit {
				t.Errorf("first sample after the cold restart hit %.4f, not below BeforeHit %.4f and DownHit %.4f", pt.HitRate, r.BeforeHit, r.DownHit)
			}
			if r.AfterHit <= pt.HitRate {
				t.Errorf("AfterHit %.4f does not recover from the restart's %.4f", r.AfterHit, pt.HitRate)
			}
			break
		}
	}
}
