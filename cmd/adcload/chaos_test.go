package main

import (
	"runtime"
	"testing"
	"time"
)

// TestChaosKillRestartRecovers is the chaos-smoke gate: a short run that
// kills one of four proxies and restarts it must (a) keep availability
// high outside the outage window, (b) detect the kill and readmit the
// proxy after restart, and (c) tear down without leaking goroutines —
// the whole fault-tolerance layer exercised end to end.
func TestChaosKillRestartRecovers(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := smokeConfig()
	cfg.Proxies = 4
	cfg.Duration = 3 * time.Second
	cfg.Rate = 400
	cfg.Faults = "kill=p1@500ms,restart=p1@1500ms"
	cfg.ProbeInterval = 25 * time.Millisecond
	cfg.FailThreshold = 2
	cfg.AvailWindow = 250 * time.Millisecond

	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cr := rep.Chaos
	if cr == nil {
		t.Fatal("chaos run produced no chaos report")
	}
	if len(cr.Events) != 2 {
		t.Fatalf("applied %d events, want 2: %+v", len(cr.Events), cr.Events)
	}
	for _, ev := range cr.Events {
		if ev.Err != "" {
			t.Errorf("event %s p%d failed: %s", ev.Action, ev.Proxy, ev.Err)
		}
	}
	if len(cr.Kills) != 1 {
		t.Fatalf("kill accounting covers %d proxies, want 1: %+v", len(cr.Kills), cr.Kills)
	}
	kill := cr.Kills[0]
	if kill.Proxy != 1 {
		t.Errorf("kill report targets proxy %d, want 1", kill.Proxy)
	}
	// Detection is bounded by probe interval × threshold plus a round
	// trip; at 25ms × 2 even a slow CI box lands well under a second.
	if kill.TimeToDetectSec < 0 {
		t.Error("the killed proxy was never detected")
	} else if kill.TimeToDetectSec > 1.0 {
		t.Errorf("time to detect %.3fs, want under 1s at a 25ms probe interval", kill.TimeToDetectSec)
	}
	if kill.TimeToRecoverSec < 0 {
		t.Error("the restarted proxy was never readmitted by all peers")
	}

	// Clients keep addressing the killed proxy directly (no client-side
	// failover — the dip is the honest cost of the outage), so mid-run
	// windows sag; after restart the farm must be fully available again.
	if cr.FinalAvailability < 0.99 {
		t.Errorf("final availability %.4f, want ≥ 0.99 after recovery", cr.FinalAvailability)
	}
	if len(cr.Windows) == 0 {
		t.Error("availability report has no windows")
	}

	// Errors during the outage are expected; errors beyond the outage
	// window would show up here as a sagging final availability, and a
	// run with zero errors would mean the kill never bit.
	if rep.Errors == 0 && rep.Farm.FailoverOrigin == 0 && rep.Farm.RetriedFetches == 0 {
		t.Error("chaos run shows no errors and no failover activity; the kill had no effect")
	}

	// Goroutine-leak check, as in TestRunSmoke: monitors, the chaos
	// player and the restarted server must all wind down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before run, %d after\n%s",
				before, now, truncateStacks(string(buf[:n])))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRetryAfterHonored drives a one-slot, no-queue farm hard enough to
// shed, once with Retry-After honoring off and once on: the run with
// backoff must record retries and no client may error either way.
func TestRetryAfterHonored(t *testing.T) {
	cfg := smokeConfig()
	cfg.MaxActive = 1
	cfg.MaxQueue = -1
	cfg.Warm = 0
	cfg.Rate = 2000
	cfg.Duration = time.Second
	cfg.Conns = 32

	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Skip("farm did not shed at this rate; nothing to retry")
	}
	if rep.ShedRetries != 0 {
		t.Errorf("ShedRetries = %d with honoring disabled, want 0", rep.ShedRetries)
	}

	cfg.RetryAfterMax = 50 * time.Millisecond
	rep, err = run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("retrying run reported %d errors", rep.Errors)
	}
	if rep.Shed > 0 && rep.ShedRetries == 0 {
		t.Errorf("run shed %d requests but honored no Retry-After backoffs", rep.Shed)
	}
}
