package httpproxy

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/promtext"
)

// ftFarm builds a small farm with the fault-tolerance layer on, tuned for
// fast tests: 20ms probes, 2 failures to down.
func ftFarm(t *testing.T, proxies int) *Farm {
	t.Helper()
	f, err := NewFarm(proxies, Config{
		Tables: core.Config{SingleSize: 128, MultipleSize: 128, CachingSize: 64},
		Seed:   1,
		FaultTolerance: FaultTolerance{
			Health: HealthConfig{
				Enabled:          true,
				ProbeInterval:    20 * time.Millisecond,
				FailureThreshold: 2,
			},
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
		Enabled:          true,
		ProbeInterval:    time.Hour, // no probe ticks; observations are manual
		FailureThreshold: 3,
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
			if p.health.Load().state(victim.ID()) != PeerDown {
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
			if p.health.Load().state(victim.ID()) != PeerUp {
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
	checkFarmInvariants(t, f)
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
		return entry.health.Load().state(owner.ID()) == PeerDown
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
	checkFarmInvariants(t, f)
}

// TestFetchRefusesDownPeer: once the entry's monitor holds a peer down, a
// fetch to it — one that raced past Route's routable check — fails without
// reaching the peer, counts in PeerDownRefusals and records a peer_down_refusal
// span. The peer itself is alive, so any connection would have succeeded.
func TestFetchRefusesDownPeer(t *testing.T) {
	f := tracedFarm(t, 2, FaultTolerance{Health: HealthConfig{
		Enabled:          true,
		ProbeInterval:    time.Hour, // no probe ticks: the belief changes only as told
		FailureThreshold: 3,
	}})
	entry, peer := f.Proxies[0], f.Proxies[1]
	for i := 0; i < 3; i++ {
		entry.health.Load().reportFailure(peer.ID())
	}
	if got := entry.health.Load().state(peer.ID()); got != PeerDown {
		t.Fatalf("peer state = %v, want down", got)
	}

	sc := entry.spanContext(http.Header{}, 0)
	if res := entry.fetch(peer.URL(), peer.ID(), "", ids.ObjectID(9), "refused-1", 1, sc); res.err == nil {
		t.Fatal("fetch to a peer held down succeeded")
	}
	if got := peer.Stats().Requests; got != 0 {
		t.Errorf("the down peer received %d requests, want none", got)
	}
	if got := entry.Stats().PeerDownRefusals; got != 1 {
		t.Errorf("PeerDownRefusals = %d, want 1", got)
	}
	var refused []obs.Span
	for _, s := range entry.TraceDump().Spans {
		if s.Stage == obs.SpanPeerDownRefusal {
			refused = append(refused, s)
		}
	}
	if len(refused) != 1 || refused[0].Err != "peer down" || refused[0].Detail != peer.ID().String() {
		t.Errorf("refusal spans = %+v, want one %s span to %v with error \"peer down\"", refused, obs.SpanPeerDownRefusal, peer.ID())
	}
}

// TestHedgedOriginFetchWins: the entry has learned a location whose peer
// stalls object requests but answers /healthz, so the monitor keeps it
// routable and only the hedge can answer. After HedgeDelay the origin hedge
// wins; once the stalled fetch is released, no goroutine is left behind.
func TestHedgedOriginFetchWins(t *testing.T) {
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != healthzPath {
			<-release
		}
	}))
	origin, err := NewOrigin()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProxy(Config{
		ID:        0,
		Tables:    core.Config{SingleSize: 64, MultipleSize: 64, CachingSize: 64},
		OriginURL: origin.URL(),
		Seed:      1,
		FaultTolerance: FaultTolerance{
			Health:     HealthConfig{Enabled: true, ProbeInterval: 20 * time.Millisecond},
			HedgeDelay: 20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	peer := ids.NodeID(1)
	p.SetPeers(map[ids.NodeID]string{p.ID(): p.URL(), peer: stall.URL})
	obj := ids.ObjectID(31)
	teachLocation(p, obj, peer)

	if code := stormGet(t, p, obj, "hedge-1"); code != http.StatusOK {
		t.Errorf("status %d, want 200 from the hedge", code)
	}
	if got := origin.Resolved(); got != 1 {
		t.Errorf("origin answered %d requests, want the hedge's 1", got)
	}
	if s := p.Stats(); s.HedgedFetches != 1 || s.HedgeWins != 1 {
		t.Errorf("HedgedFetches = %d, HedgeWins = %d; want 1 and 1", s.HedgedFetches, s.HedgeWins)
	}

	close(release)
	stall.Close()
	_ = p.Close()
	_ = origin.Close()
	waitFor(t, 10*time.Second, "every goroutine of the hedged request to exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
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
	checkFarmInvariants(t, f)
}

// TestGateDrainsAfterRecovery kills a peer under a tight admission gate,
// restarts it mid-burst, and checks every queued entry request completes —
// the gate must drain through failure and recovery, never wedge.
func TestGateDrainsAfterRecovery(t *testing.T) {
	const clients = 12
	f, err := NewFarm(2, Config{
		Tables:    core.Config{SingleSize: 128, MultipleSize: 128, CachingSize: 64},
		Seed:      1,
		MaxActive: 1,
		MaxQueue:  8,
		FaultTolerance: FaultTolerance{
			Health: HealthConfig{
				Enabled:          true,
				ProbeInterval:    20 * time.Millisecond,
				FailureThreshold: 2,
			},
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
	waitFor(t, 5*time.Second, "gate queue to drain", func() bool { return entry.gate.depth() == 0 })
	checkFarmInvariants(t, f)
}

// TestMetricsHealthTotals checks /metrics carries the health monitor's
// totals with the layer on, and names the killed peer down.
func TestMetricsHealthTotals(t *testing.T) {
	f := ftFarm(t, 2)
	if err := f.Proxies[1].Kill(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "proxy 0 to mark proxy 1 down", func() bool {
		return f.Proxies[0].health.Load().state(f.Proxies[1].ID()) == PeerDown
	})

	page := metricsPage(t, f.Proxies[0])
	for _, name := range []string{"adc_health_probes_total", "adc_health_probe_failures_total", "adc_health_detections_total"} {
		if v, ok := page.Value(name); !ok || v == 0 {
			t.Errorf("%s = %v (found %v), want nonzero", name, v, ok)
		}
	}
	if _, ok := page.Value("adc_health_recoveries_total"); !ok {
		t.Error("no adc_health_recoveries_total with the layer enabled")
	}
	if v, ok := page.Value(PeerStateFamily, promtext.L("peer", f.Proxies[1].ID().String())); !ok || PeerState(v) != PeerDown {
		t.Errorf("peer state of proxy 1 = %v (found %v), want down", v, ok)
	}
}

// TestHealthProbeReusesConnection: a probe reads the /healthz body to its
// end, so its connection is pooled and a peer sees one connection however
// many probes arrive.
func TestHealthProbeReusesConnection(t *testing.T) {
	const probes = 5
	peer, accepts := countingServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(healthzBody{Status: "ok", Proxy: "Proxy[1]"})
	})
	cfg := HealthConfig{Enabled: true, ProbeInterval: time.Hour, FailureThreshold: 3}.withDefaults()
	m := newHealthMonitor(cfg, ids.NodeID(0), map[ids.NodeID]string{
		ids.NodeID(0): "http://unused",
		ids.NodeID(1): peer.URL,
	}, func(ids.NodeID) bool { return false })
	defer m.close()
	for i := 0; i < probes; i++ {
		if !m.probe(ids.NodeID(1), peer.URL) {
			t.Fatalf("probe %d failed", i)
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("%d probes opened %d connections, want 1", probes, n)
	}
}
