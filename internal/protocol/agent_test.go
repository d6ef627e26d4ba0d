package protocol

import (
	"os/exec"
	"slices"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/obs"
)

// TestCoreIsTransportFree is the package's reason to exist as an assertion:
// the protocol core may be driven by the simulator and by HTTP, so it may
// depend on neither.
func TestCoreIsTransportFree(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	const mod = "github.com/adc-sim/adc/internal/"
	for _, banned := range []string{mod + "sim", mod + "msg", mod + "agent", "net/http"} {
		if slices.Contains(deps, banned) {
			t.Errorf("internal/protocol depends on %s", banned)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{ID: ids.Origin, Tables: testTables()}); err == nil {
		t.Error("non-proxy ID must fail")
	}
	if _, err := New(Config{ID: 0}); err == nil {
		t.Error("invalid table config must fail")
	}
	// The peer set may come later (the HTTP farm's address book); until
	// then the origin is the only resolver.
	a, err := New(Config{ID: 0, Tables: testTables()})
	if err != nil {
		t.Fatal(err)
	}
	if to, reason := a.Route(1, false, false, true, nil); to != ids.Origin || reason != obs.ReasonFailover {
		t.Errorf("route without peers = (%v, %s), want (Origin, failover)", to, obs.ForwardReasonString(reason))
	}
}

// TestSeedDerivation pins the per-proxy stream: both drivers construct their
// agents here, so a simulator proxy and a farm proxy with one seed and ID draw
// the same peers — the precondition of the sim-vs-farm differential test.
func TestSeedDerivation(t *testing.T) {
	draw := func(id ids.NodeID, seed int64) []ids.NodeID {
		a, err := New(Config{ID: id, Peers: []ids.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, Tables: testTables(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var out []ids.NodeID
		for obj := ids.ObjectID(0); obj < 16; obj++ {
			to, _ := a.Route(obj, false, false, true, nil)
			out = append(out, to)
		}
		return out
	}
	if !slices.Equal(draw(3, 42), draw(3, 42)) {
		t.Error("same ID and seed drew different streams")
	}
	if slices.Equal(draw(3, 42), draw(4, 42)) {
		t.Error("two proxies of one system drew the same stream")
	}
	if slices.Equal(draw(3, 42), draw(3, 43)) {
		t.Error("the seed does not reach the stream")
	}
}

// TestRouteSkipsUnroutableHolder covers the reachability predicate: a
// learned holder the driver rejects is invalidated and counted, the entry
// proxy fails over to the origin, a mid-chain proxy to a routable peer, and
// with nobody routable the origin is all that is left.
func TestRouteSkipsUnroutableHolder(t *testing.T) {
	newAgent := func() *Agent {
		a, err := New(Config{ID: 0, Peers: []ids.NodeID{0, 1, 2}, Tables: testTables(), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		a.tables.Update(7, 1, 1) // learned: proxy 1 holds object 7
		return a
	}
	down1 := func(n ids.NodeID) bool { return n != 1 }

	a := newAgent()
	if to, reason := a.Route(7, false, false, true, nil); to != 1 || reason != obs.ReasonLearned {
		t.Fatalf("nil predicate = (%v, %s), want (1, learned)", to, obs.ForwardReasonString(reason))
	}
	if to, reason := a.Route(7, false, false, true, down1); to != ids.Origin || reason != obs.ReasonFailover {
		t.Fatalf("entry with holder down = (%v, %s), want (Origin, failover)", to, obs.ForwardReasonString(reason))
	}
	if a.Stats.StaleInvalidated != 1 {
		t.Errorf("StaleInvalidated = %d, want 1", a.Stats.StaleInvalidated)
	}
	if _, ok := a.tables.ForwardLocation(7); ok {
		t.Error("the stale mapping survived")
	}

	a = newAgent()
	for i := 0; i < 20; i++ {
		a.tables.Update(7, 1, 1)
		to, reason := a.Route(7, false, false, false, down1)
		if reason != obs.ReasonRandom || to == 1 || !to.IsProxy() {
			t.Fatalf("mid-chain with holder down = (%v, %s), want a random routable peer", to, obs.ForwardReasonString(reason))
		}
	}

	a = newAgent()
	allDown := func(ids.NodeID) bool { return false }
	if to, reason := a.Route(7, false, false, false, allDown); to != ids.Origin || reason != obs.ReasonFailover {
		t.Fatalf("everyone down = (%v, %s), want (Origin, failover)", to, obs.ForwardReasonString(reason))
	}
}

// TestLearnClaimAdvertisesAndPushes is the reply-path half of the holder
// rule: a proxy that claims the cached slot as a reply passes speaks as the
// holder — it pushes to the next backwarding hop when the object ran hot, and
// its own view of the replica set (and its own measured average) replaces
// whatever advertisement came from upstream.
func TestLearnClaimAdvertisesAndPushes(t *testing.T) {
	a := testAgent(t, 1, 4)
	const obj = ids.ObjectID(5)
	a.tables.Update(obj, 3, 1)
	a.tables.Update(obj, 3, 2) // in the multiple table: the next sighting caches it
	a.replica.hot[obj] = a.replica.cfg.HotThreshold

	evicted := 0
	a.OnEvict(func(ids.ObjectID) { evicted++ })
	upstream := Advert{Replicate: true, Replicas: []ids.NodeID{1, 2}, AvgHint: 77}
	l := a.Learn(obj, 3, false, 0, upstream)

	if l.Location != 3 {
		t.Errorf("learned location = %v, want the resolver as received (3)", l.Location)
	}
	if !l.Holds || !l.Cached || l.Resolver != a.id {
		t.Fatalf("learned = %+v, want this proxy to hold and claim the object", l)
	}
	if a.Stats.ReplicaPushes != 1 {
		t.Errorf("ReplicaPushes = %d, want 1 (hot object, proxy requester)", a.Stats.ReplicaPushes)
	}
	if !l.Advert.Replicate || !slices.Equal(l.Advert.Replicas, []ids.NodeID{0, 2}) {
		t.Errorf("advert = %+v, want the claimer's own set [0 2]", l.Advert)
	}
	if l.Advert.AvgHint == upstream.AvgHint {
		t.Errorf("advert kept the upstream average %d", l.Advert.AvgHint)
	}
	if evicted != 0 {
		t.Errorf("eviction hook ran %d times with free cache slots", evicted)
	}

	// A reply some upstream proxy already claimed is learned, not claimed:
	// the upstream advertisement passes through untouched.
	b := testAgent(t, 1, 4)
	b.tables.Update(obj, 3, 1)
	b.tables.Update(obj, 3, 2)
	l = b.Learn(obj, 3, true, 0, Advert{Replicate: true, Replicas: []ids.NodeID{2}, AvgHint: 77})
	if !l.Holds || l.Resolver != 3 || !l.Cached {
		t.Fatalf("learned = %+v, want held here but resolved at 3", l)
	}
	if !slices.Equal(l.Advert.Replicas, []ids.NodeID{2}) || l.Advert.AvgHint != 77 {
		t.Errorf("advert = %+v, want the upstream one", l.Advert)
	}
}

// TestEvictHookTracksCachingTable drives more hot objects through an agent
// than its cache holds and checks the hook reports exactly the departures, so
// a driver's payload store can mirror the caching table.
func TestEvictHookTracksCachingTable(t *testing.T) {
	a, err := New(Config{ID: 0, Peers: []ids.NodeID{0}, Tables: testTables(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := map[ids.ObjectID]bool{}
	a.OnEvict(func(obj ids.ObjectID) { delete(store, obj) })
	// The hot set shifts every phase, so aging lets newcomers displace the
	// previous phase's residents.
	for phase := 0; phase < 4; phase++ {
		for round := 0; round < 20; round++ {
			for i := 0; i < 20; i++ {
				obj := ids.ObjectID(phase*20 + i)
				if hit, _, _ := a.Arrive(obj, ids.None); hit {
					continue
				}
				if a.Learn(obj, ids.None, false, ids.None, Advert{}).Holds {
					store[obj] = true
				}
			}
		}
	}
	if a.Stats.CacheEvictions == 0 {
		t.Fatal("setup: the stream never overflowed the cache")
	}
	if len(store) != a.tables.Caching().Len() {
		t.Fatalf("store holds %d objects, caching table %d", len(store), a.tables.Caching().Len())
	}
	for obj := range store {
		if !a.tables.IsCached(obj) {
			t.Errorf("store kept %v, which the caching table dropped", obj)
		}
	}
}
