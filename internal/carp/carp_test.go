package carp_test

import (
	"testing"

	"github.com/adc-sim/adc/internal/carp"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/lru"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/proxy"
	"github.com/adc-sim/adc/internal/sim"
)

func members(n int) []ids.NodeID {
	out := make([]ids.NodeID, n)
	for i := range out {
		out[i] = ids.NodeID(i)
	}
	return out
}

func TestHasherDeterministic(t *testing.T) {
	h1 := carp.NewHasher(members(5))
	h2 := carp.NewHasher(members(5))
	for obj := ids.ObjectID(0); obj < 1000; obj++ {
		if h1.Assign(obj) != h2.Assign(obj) {
			t.Fatalf("hashers disagree on %v", obj)
		}
	}
}

func TestHasherBalance(t *testing.T) {
	h := carp.NewHasher(members(5))
	counts := make(map[ids.NodeID]int)
	const n = 50000
	for obj := ids.ObjectID(0); obj < n; obj++ {
		counts[h.Assign(obj)]++
	}
	for id, c := range counts {
		if c < n/5*8/10 || c > n/5*12/10 {
			t.Errorf("member %v owns %d of %d (want ≈%d)", id, c, n, n/5)
		}
	}
}

func TestHasherMinimalDisruption(t *testing.T) {
	// CARP's selling point: adding a member remaps only ≈1/(n+1) of the
	// objects and never moves an object between two surviving members.
	before := carp.NewHasher(members(5))
	after := carp.NewHasher(members(6))
	const n = 20000
	moved := 0
	for obj := ids.ObjectID(0); obj < n; obj++ {
		a, b := before.Assign(obj), after.Assign(obj)
		if a != b {
			moved++
			if b != ids.NodeID(5) {
				t.Fatalf("object %v moved between surviving members %v → %v", obj, a, b)
			}
		}
	}
	frac := float64(moved) / n
	if frac < 0.10 || frac > 0.24 {
		t.Errorf("moved fraction = %.3f, want ≈1/6", frac)
	}
}

// carpRig builds an array of CARP proxies — LRU policies over one Hasher —
// plus origin on an engine.
func carpRig(t *testing.T, n, cacheSize int) (*sim.VEngine, []*proxy.ADC, *carp.Hasher) {
	t.Helper()
	h := carp.NewHasher(members(n))
	eng := sim.NewVEngine(sim.LatencyModel{})
	proxies := make([]*proxy.ADC, n)
	for i := range proxies {
		id := ids.NodeID(i)
		pol, err := lru.NewPolicy(id, cacheSize, h, ids.Origin)
		if err != nil {
			t.Fatal(err)
		}
		p, err := proxy.New(proxy.Config{ID: id, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		if err := eng.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Register(sim.NewOrigin()); err != nil {
		t.Fatal(err)
	}
	return eng, proxies, h
}

// TestConfigValidation: a CARP proxy is a proxy node over an LRU policy that
// hashes with the array's Hasher; each part must be present and sound.
func TestConfigValidation(t *testing.T) {
	h := carp.NewHasher(members(2))
	if _, err := lru.NewPolicy(ids.Origin, 4, h, ids.Origin); err == nil {
		t.Error("non-proxy ID must fail")
	}
	if _, err := proxy.New(proxy.Config{ID: 0}); err == nil {
		t.Error("a CARP proxy without its hashing policy must fail")
	}
	if _, err := lru.NewPolicy(0, 0, h, ids.Origin); err == nil {
		t.Error("zero cache size must fail")
	}
}

type sink struct {
	id      ids.NodeID
	replies []*msg.Reply
}

func (s *sink) ID() ids.NodeID { return s.id }
func (s *sink) Handle(_ sim.Context, m msg.Message) {
	if rep, ok := m.(*msg.Reply); ok {
		s.replies = append(s.replies, rep)
	}
}

func send(t *testing.T, eng *sim.VEngine, s *sink, to ids.NodeID, obj ids.ObjectID, counter uint64) *msg.Reply {
	t.Helper()
	before := len(s.replies)
	eng.Send(&msg.Request{
		To: to, ID: ids.NewRequestID(0, counter), Object: obj,
		Client: s.id, Sender: s.id,
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.replies) != before+1 {
		t.Fatalf("want exactly one reply, got %d new", len(s.replies)-before)
	}
	return s.replies[len(s.replies)-1]
}

// held is how many objects a proxy's cache holds.
func held(p *proxy.ADC) int {
	n, _ := p.Policy().Occupancy()
	return n
}

func TestMissFetchesFromOriginAndCaches(t *testing.T) {
	eng, proxies, h := carpRig(t, 3, 8)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	const obj = 42
	assigned := h.Assign(obj)
	entry := (assigned + 1) % 3 // deliberately not the assigned proxy

	rep := send(t, eng, s, entry, obj, 1)
	if !rep.FromOrigin {
		t.Error("first request must be a miss")
	}
	// Hops: client→entry, entry→assigned, assigned→origin,
	// origin→assigned, assigned→client = 5.
	if rep.Hops != 5 {
		t.Errorf("miss hops = %d, want 5", rep.Hops)
	}
	if held(proxies[assigned]) != 1 {
		t.Error("assigned proxy must cache the fetched object")
	}
	for i, p := range proxies {
		if ids.NodeID(i) != assigned && held(p) != 0 {
			t.Errorf("proxy %d cached an object it is not assigned", i)
		}
	}

	// The entry proxy handed the request over and is not on the reply
	// path, so it waits for nothing.
	for i, p := range proxies {
		if p.PendingLen() != 0 {
			t.Errorf("proxy %d kept %d pending passes", i, p.PendingLen())
		}
	}

	// Second request through another proxy: remote hit, 3 hops, bypass.
	rep = send(t, eng, s, entry, obj, 2)
	if rep.FromOrigin {
		t.Error("second request must hit")
	}
	if rep.Hops != 3 {
		t.Errorf("remote hit hops = %d, want 3", rep.Hops)
	}

	// Entry at the assigned proxy itself: local hit, 2 hops.
	rep = send(t, eng, s, assigned, obj, 3)
	if rep.FromOrigin || rep.Hops != 2 {
		t.Errorf("local hit = origin:%v hops:%d, want hit with 2 hops", rep.FromOrigin, rep.Hops)
	}
}

func TestAssignedProxyMissGoesDirectToOrigin(t *testing.T) {
	eng, _, h := carpRig(t, 3, 8)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	const obj = 7
	rep := send(t, eng, s, h.Assign(obj), obj, 1)
	if !rep.FromOrigin {
		t.Error("want origin miss")
	}
	// client→assigned, assigned→origin, origin→assigned,
	// assigned→client = 4.
	if rep.Hops != 4 {
		t.Errorf("hops = %d, want 4", rep.Hops)
	}
}

// TestConcurrentMissesInsertOnce: two misses for one object in flight at the
// assigned proxy both fetch from the origin, and the second reply finds the
// object cached — a refresh, not a second insertion.
func TestConcurrentMissesInsertOnce(t *testing.T) {
	eng, proxies, h := carpRig(t, 3, 8)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	const obj = 42
	owner := h.Assign(obj)
	for i := uint64(1); i <= 2; i++ {
		eng.Send(&msg.Request{To: owner, ID: ids.NewRequestID(0, i), Object: obj, Client: s.id, Sender: s.id})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := proxies[owner].Stats()
	if len(s.replies) != 2 || st.ForwardOrigin != 2 || st.RepliesSeen != 2 {
		t.Fatalf("replies=%d origin fetches=%d replies seen=%d, want 2/2/2", len(s.replies), st.ForwardOrigin, st.RepliesSeen)
	}
	if st.CacheInsertions != 1 {
		t.Errorf("CacheInsertions = %d, want 1", st.CacheInsertions)
	}
}

func TestLRUEvictionUnderChurn(t *testing.T) {
	eng, proxies, _ := carpRig(t, 2, 4)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		send(t, eng, s, ids.NodeID(i%2), ids.ObjectID(i), i)
	}
	for i, p := range proxies {
		if n := held(p); n > 4 {
			t.Errorf("proxy %d cache grew to %d > 4", i, n)
		}
		if p.Stats().CacheEvictions == 0 {
			t.Errorf("proxy %d never evicted under churn", i)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, proxies, _ := carpRig(t, 3, 16)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 150; i++ {
		send(t, eng, s, ids.NodeID(i%3), ids.ObjectID(i%12), i)
	}
	var req, hit, fwd, orig uint64
	for _, p := range proxies {
		st := p.Stats()
		req += st.Requests
		hit += st.LocalHits
		fwd += st.ForwardLearned
		orig += st.ForwardOrigin
	}
	if hit+fwd+orig != req {
		t.Errorf("hits(%d)+forwards(%d)+origin(%d) != requests(%d)", hit, fwd, orig, req)
	}
	if hit == 0 {
		t.Error("a 12-object working set must produce hits")
	}
}
