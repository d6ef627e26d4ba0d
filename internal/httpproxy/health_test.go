package httpproxy

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
)

// ftFarm builds a small farm with the fault-tolerance layer on, tuned for
// fast tests: 20ms probes, 2 failures to down, 1 success back up.
func ftFarm(t *testing.T, proxies int) *Farm {
	t.Helper()
	f, err := NewFarm(FarmConfig{
		Proxies: proxies,
		Tables:  core.Config{SingleSize: 128, MultipleSize: 128, CachingSize: 64},
		Seed:    1,
		FaultTolerance: FaultTolerance{
			Health: HealthConfig{
				Enabled:           true,
				ProbeInterval:     20 * time.Millisecond,
				FailureThreshold:  2,
				RecoveryThreshold: 1,
			},
			RetryBackoff: 5 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHealthStateMachine drives one monitor's state machine directly
// through the documented path: up → suspect → down → recovering → up,
// including the flap back to down from recovering.
func TestHealthStateMachine(t *testing.T) {
	cfg := HealthConfig{
		Enabled:           true,
		ProbeInterval:     time.Hour, // no probe ticks; observations are manual
		FailureThreshold:  3,
		RecoveryThreshold: 2,
	}
	peer := ids.NodeID(1)
	m := newHealthMonitor(cfg, 0, map[ids.NodeID]string{0: "http://self", peer: "http://peer"}, nil)
	defer m.close()

	check := func(want PeerState, routable bool) {
		t.Helper()
		if got := m.state(peer); got != want {
			t.Fatalf("state = %v, want %v", got, want)
		}
		if got := m.routable(peer); got != routable {
			t.Fatalf("routable(%v) = %v, want %v", want, got, routable)
		}
	}

	check(PeerUp, true)
	m.reportFailure(peer) // 1st failure: suspect, still routable
	check(PeerSuspect, true)
	m.reportSuccess(peer) // success clears suspicion
	check(PeerUp, true)

	m.reportFailure(peer)
	m.reportFailure(peer)
	check(PeerSuspect, true) // 2 of 3
	m.reportFailure(peer)
	check(PeerDown, false) // threshold reached

	m.reportSuccess(peer) // 1 of 2 back
	check(PeerRecovering, false)
	m.reportFailure(peer) // flap while recovering drops straight back
	check(PeerDown, false)

	m.reportSuccess(peer)
	m.reportSuccess(peer)
	check(PeerUp, true)

	// Unknown peers (and self) are always routable and never recorded.
	if !m.routable(ids.NodeID(99)) {
		t.Error("unknown peer must be routable")
	}
	if m.state(0) != PeerUp {
		t.Error("self must read as up")
	}

	// The transition log recorded the full journey in order.
	var states []PeerState
	for _, tr := range m.Transitions() {
		if tr.Observer != 0 || tr.Peer != peer {
			t.Errorf("transition %+v has wrong observer/peer", tr)
		}
		states = append(states, tr.To)
	}
	want := []PeerState{PeerSuspect, PeerUp, PeerSuspect, PeerDown, PeerRecovering, PeerDown, PeerRecovering, PeerUp}
	if len(states) != len(want) {
		t.Fatalf("recorded %d transitions %v, want %v", len(states), states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v (%v)", i, states[i], want[i], states)
		}
	}
}

// TestHealthProbeDetectsKillAndRecover is the active-probing contract: a
// killed proxy is marked down by every peer within a few probe intervals,
// and readmitted after restart.
func TestHealthProbeDetectsKillAndRecover(t *testing.T) {
	f := ftFarm(t, 3)
	victim := f.Proxies[2]
	observers := f.Proxies[:2]

	if err := victim.Kill(); err != nil {
		t.Fatal(err)
	}
	killedAt := time.Now()
	waitFor(t, 5*time.Second, "peers to mark the killed proxy down", func() bool {
		for _, p := range observers {
			if p.HealthState(victim.ID()) != PeerDown {
				return false
			}
		}
		return true
	})

	// Detection latency is bounded by ProbeInterval × FailureThreshold plus
	// a round-trip; be generous for CI but fail on a runaway bound.
	if ttd := time.Since(killedAt); ttd > 2*time.Second {
		t.Errorf("detection took %v, want well under 2s at a 20ms probe interval", ttd)
	}

	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "peers to readmit the restarted proxy", func() bool {
		for _, p := range observers {
			if p.HealthState(victim.ID()) != PeerUp {
				return false
			}
		}
		return true
	})

	// The merged transition log carries both the detection and the recovery
	// for each observer — the chaos harness's TTD/TTR source.
	var downs, ups int
	for _, tr := range f.HealthTransitions() {
		if tr.Peer != victim.ID() {
			continue
		}
		switch tr.To {
		case PeerDown:
			downs++
		case PeerUp:
			ups++
		}
	}
	if downs < len(observers) || ups < len(observers) {
		t.Errorf("transition log has %d downs / %d ups for the victim, want ≥%d each",
			downs, ups, len(observers))
	}

	// A request through a surviving proxy still resolves.
	if code := stormGet(t, f.Proxies[0], ids.ObjectID(42), "after-recover"); code != http.StatusOK {
		t.Errorf("post-recovery request: status %d", code)
	}
}

// teachLocation plants the belief "loc holds obj" in p's mapping tables
// (white-box: what a backwarding reply would have taught it).
func teachLocation(p *Proxy, obj ids.ObjectID, loc ids.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tables := p.adc.Tables()
	tables.Recycle(tables.Update(obj, loc, 1))
}

// TestFailoverOriginWhenOwnerDown seeds an entry proxy with a learned
// location, kills the owner, and checks the request falls back to the
// origin while the stale table entry is invalidated — the real-network
// mirror of the virtual-time stale-location invalidation.
func TestFailoverOriginWhenOwnerDown(t *testing.T) {
	f := ftFarm(t, 2)
	entry, owner := f.Proxies[0], f.Proxies[1]
	obj := ids.ObjectID(777)

	// White-box: teach the entry proxy that the owner holds obj.
	teachLocation(entry, obj, owner.ID())

	if err := owner.Kill(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "entry proxy to mark the owner down", func() bool {
		return entry.HealthState(owner.ID()) == PeerDown
	})

	if code := stormGet(t, entry, obj, "fo-1"); code != http.StatusOK {
		t.Fatalf("failover request: status %d, want 200", code)
	}
	s := entry.Stats()
	if s.StaleInvalidated == 0 {
		t.Errorf("StaleInvalidated = 0, want the dead owner's entry demoted")
	}
	if s.ForwardOrigin == 0 {
		t.Errorf("ForwardOrigin = 0, want the entry to fall back to the origin")
	}
}

// TestBreakerGroup covers the circuit state machine: trip after the
// threshold, fail fast while open, a single half-open trial after the
// cooldown, and both trial outcomes.
func TestBreakerGroup(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	g := newBreakerGroup(2, cooldown)
	dest := ids.NodeID(1)

	if !g.allow(dest) {
		t.Fatal("unknown destination must be allowed")
	}
	g.report(dest, false)
	if !g.allow(dest) {
		t.Fatal("one failure must not trip a threshold-2 breaker")
	}
	g.report(dest, false)
	if g.allow(dest) {
		t.Fatal("breaker must open at the threshold")
	}
	if vars := g.snapshot(); len(vars) != 1 || vars[0].State != "open" {
		t.Fatalf("snapshot = %+v, want one open circuit", vars)
	}

	time.Sleep(cooldown + 10*time.Millisecond)
	if !g.allow(dest) {
		t.Fatal("cooldown elapsed: the trial request must pass")
	}
	if g.allow(dest) {
		t.Fatal("only one half-open trial at a time")
	}
	g.report(dest, false) // trial failed: reopen
	if g.allow(dest) {
		t.Fatal("failed trial must reopen the circuit")
	}

	time.Sleep(cooldown + 10*time.Millisecond)
	if !g.allow(dest) {
		t.Fatal("second trial must pass after another cooldown")
	}
	g.report(dest, true) // trial succeeded: close
	if !g.allow(dest) {
		t.Fatal("successful trial must close the circuit")
	}
	if vars := g.snapshot(); len(vars) != 0 {
		t.Fatalf("snapshot = %+v, want no tripped circuits", vars)
	}

	// threshold < 0 disables the group entirely.
	var off *breakerGroup = newBreakerGroup(-1, 0)
	if off != nil {
		t.Fatal("negative threshold must disable breakers")
	}
	if !off.allow(dest) {
		t.Fatal("nil group must allow everything")
	}
	off.report(dest, false) // must not panic
}

// TestParseChaosSpec covers the schedule grammar, event ordering, and
// validation against the farm size.
func TestParseChaosSpec(t *testing.T) {
	plan, err := ParseChaosSpec("kill=p3@5s, restart=p3@15s, partition=p1:p2@8s+4s")
	if err != nil {
		t.Fatal(err)
	}
	want := []ChaosEvent{
		{At: 5 * time.Second, Action: ChaosKill, Proxy: 3},
		{At: 8 * time.Second, Action: ChaosPartition, A: 1, B: 2},
		{At: 12 * time.Second, Action: ChaosHeal, A: 1, B: 2},
		{At: 15 * time.Second, Action: ChaosRestart, Proxy: 3},
	}
	if len(plan.Events) != len(want) {
		t.Fatalf("parsed %d events, want %d: %+v", len(plan.Events), len(want), plan.Events)
	}
	for i, ev := range plan.Events {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}

	if spans := plan.KillSpans(); spans[3] != [2]time.Duration{5 * time.Second, 15 * time.Second} {
		t.Errorf("KillSpans = %v, want proxy 3 killed@5s restarted@15s", spans)
	}

	if err := plan.Validate(8); err != nil {
		t.Errorf("Validate(8) = %v, want nil", err)
	}
	if err := plan.Validate(3); err == nil {
		t.Error("Validate(3) must reject a plan targeting proxy 3")
	}

	// Bare indices work too.
	if p, err := ParseChaosSpec("kill=2@100ms"); err != nil || p.Events[0].Proxy != 2 {
		t.Errorf(`ParseChaosSpec("kill=2@100ms") = %+v, %v`, p, err)
	}

	for _, bad := range []string{
		"",                      // empty schedule tests nothing
		"explode=p1@5s",         // unknown key
		"kill=p1",               // missing @AT
		"kill=px@5s",            // bad proxy ref
		"kill=p1@-5s",           // negative offset
		"partition=p1@5s",       // missing :B
		"partition=p1:p1@5s",    // same proxy twice
		"partition=p1:p2@5s+0s", // non-positive span
		"kill",                  // not key=value
	} {
		if _, err := ParseChaosSpec(bad); err == nil {
			t.Errorf("ParseChaosSpec(%q) succeeded, want error", bad)
		}
	}
}

// TestFlightLeaderPeerDiesMidFetch is the satellite hang test: concurrent
// entry requests coalesce behind one leader whose upstream peer is dead.
// The leader's chain must fail over (retries, then origin) and every
// waiter must get a correct 200 — nobody hangs on a flight whose leader
// hit a dead peer.
func TestFlightLeaderPeerDiesMidFetch(t *testing.T) {
	const clients = 16
	f := ftFarm(t, 2)
	entry, peer := f.Proxies[0], f.Proxies[1]
	obj := ids.ObjectID(4242)

	// Teach the entry proxy that the (about to die) peer owns the object,
	// then kill it without waiting for detection: the first chains run
	// against a dead-but-believed-up peer, exactly the mid-fetch window.
	teachLocation(entry, obj, peer.ID())
	if err := peer.Kill(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			if code := stormGet(t, entry, obj, "dead-"+strconv.Itoa(c)); code != http.StatusOK {
				t.Errorf("client %d: status %d, want 200 via failover", c, code)
			}
		}(c)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("waiters hung: flight never completed after the peer died")
	}
}

// TestGateDrainsAfterRecovery kills a peer under a tight admission gate,
// restarts it mid-burst, and checks every queued entry request completes —
// the gate must drain through failure and recovery, never wedge.
func TestGateDrainsAfterRecovery(t *testing.T) {
	const clients = 12
	f, err := NewFarm(FarmConfig{
		Proxies:   2,
		Tables:    core.Config{SingleSize: 128, MultipleSize: 128, CachingSize: 64},
		Seed:      1,
		MaxActive: 1,
		MaxQueue:  8,
		FaultTolerance: FaultTolerance{
			Health: HealthConfig{
				Enabled:           true,
				ProbeInterval:     20 * time.Millisecond,
				FailureThreshold:  2,
				RecoveryThreshold: 1,
			},
			RetryBackoff: 5 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // teardown
	entry, peer := f.Proxies[0], f.Proxies[1]

	if err := peer.Kill(); err != nil {
		t.Fatal(err)
	}
	restart := time.AfterFunc(200*time.Millisecond, func() { _ = peer.Restart() })
	defer restart.Stop()

	var codes [clients]int
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			// Distinct objects: coalescing must not mask the gate.
			codes[c] = stormGet(t, entry, ids.ObjectID(5000+c), "drain-"+strconv.Itoa(c))
		}(c)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("queued entry requests never drained after peer recovery")
	}

	okCount, shed := 0, 0
	for c, code := range codes {
		switch code {
		case http.StatusOK:
			okCount++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("client %d: status %d, want 200 or 429", c, code)
		}
	}
	if okCount == 0 {
		t.Error("no request completed; the gate should still admit MaxActive+MaxQueue")
	}

	// The queue itself is empty again.
	waitFor(t, 5*time.Second, "gate queue to drain", func() bool { return entry.QueueDepth() == 0 })
}

// TestDebugVarsHealthSection checks /debug/vars gains health and breaker
// sections with the layer on, and omits them with the layer off.
func TestDebugVarsHealthSection(t *testing.T) {
	f := ftFarm(t, 2)
	if err := f.Proxies[1].Kill(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "proxy 0 to mark proxy 1 down", func() bool {
		return f.Proxies[0].HealthState(f.Proxies[1].ID()) == PeerDown
	})

	resp, err := http.Get(f.Proxies[0].URL() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	var v struct {
		Health *HealthVars `json:"health"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Health == nil {
		t.Fatal("/debug/vars has no health section with the layer enabled")
	}
	if v.Health.Probes == 0 || v.Health.Detections == 0 {
		t.Errorf("health section = %+v, want nonzero probes and detections", v.Health)
	}
	found := false
	for _, ph := range v.Health.Peers {
		if ph.Peer == f.Proxies[1].ID().String() && ph.State == "down" {
			found = true
		}
	}
	if !found {
		t.Errorf("health peers = %+v, want proxy 1 down", v.Health.Peers)
	}
}
