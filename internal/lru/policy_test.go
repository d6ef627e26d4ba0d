package lru_test

import (
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/lru"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/proxy"
	"github.com/adc-sim/adc/internal/sim"
)

// rig registers one proxy node per policy (node i with ID i) and the origin
// on a fresh engine.
func rig(t *testing.T, policies ...protocol.Policy) (*sim.VEngine, []*proxy.ADC) {
	t.Helper()
	eng := sim.NewVEngine(sim.LatencyModel{})
	nodes := make([]*proxy.ADC, len(policies))
	for i, pol := range policies {
		p, err := proxy.New(proxy.Config{ID: ids.NodeID(i), Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = p
		if err := eng.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Register(sim.NewOrigin()); err != nil {
		t.Fatal(err)
	}
	return eng, nodes
}

// newPolicy builds proxy id's LRU policy with a fixed next hop.
func newPolicy(t *testing.T, id ids.NodeID, size int, next ids.NodeID) *lru.Policy {
	t.Helper()
	p, err := lru.NewPolicy(id, size, nil, next)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// treeRig is the two-level caching hierarchy: leaves 0..n-1 under root n.
func treeRig(t *testing.T, leaves, size int) (*sim.VEngine, []*proxy.ADC, *proxy.ADC) {
	t.Helper()
	root := ids.NodeID(leaves)
	var policies []protocol.Policy
	for i := 0; i < leaves; i++ {
		policies = append(policies, newPolicy(t, ids.NodeID(i), size, root))
	}
	policies = append(policies, newPolicy(t, root, size, ids.Origin))
	eng, nodes := rig(t, policies...)
	return eng, nodes[:leaves], nodes[leaves]
}

// coordRig is the central coordinator: workers 0..n-1 behind dispatcher n.
func coordRig(t *testing.T, workers, size int) (*sim.VEngine, *proxy.ADC, []*proxy.ADC) {
	t.Helper()
	var policies []protocol.Policy
	var ws []ids.NodeID
	for i := 0; i < workers; i++ {
		policies = append(policies, newPolicy(t, ids.NodeID(i), size, ids.Origin))
		ws = append(ws, ids.NodeID(i))
	}
	rr, err := protocol.NewRoundRobin(ws)
	if err != nil {
		t.Fatal(err)
	}
	policies = append(policies, rr)
	eng, nodes := rig(t, policies...)
	return eng, nodes[workers], nodes[:workers]
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

func newSink(t *testing.T, eng *sim.VEngine) *sink {
	t.Helper()
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	return s
}

func send(t *testing.T, eng *sim.VEngine, s *sink, to ids.NodeID, obj ids.ObjectID, counter uint64) *msg.Reply {
	t.Helper()
	eng.Send(&msg.Request{
		To: to, ID: ids.NewRequestID(0, counter), Object: obj,
		Client: s.id, Sender: s.id,
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return s.replies[len(s.replies)-1]
}

// held is how many objects a node's cache holds.
func held(p *proxy.ADC) int {
	n, _ := p.Policy().Occupancy()
	return n
}

// TestConfigValidation: a hierarchy node needs a proxy ID, a cache and an
// upstream that is the root (another proxy) or the origin.
func TestConfigValidation(t *testing.T) {
	if _, err := lru.NewPolicy(ids.Origin, 4, nil, ids.Origin); err == nil {
		t.Error("non-proxy ID must fail")
	}
	for _, next := range []ids.NodeID{ids.Client(0), ids.None, 0} {
		if _, err := lru.NewPolicy(0, 4, nil, next); err == nil {
			t.Errorf("next hop %v must fail", next)
		}
	}
	if _, err := lru.NewPolicy(0, 0, nil, 1); err == nil {
		t.Error("zero cache must fail")
	}
}

// TestCoordinatorValidation: the dispatcher needs a proxy ID and a
// non-empty set of proxy workers, and every worker a proxy ID and a cache.
func TestCoordinatorValidation(t *testing.T) {
	rr, err := protocol.NewRoundRobin([]ids.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.New(proxy.Config{ID: ids.Origin, Policy: rr}); err == nil {
		t.Error("non-proxy coordinator ID must fail")
	}
	if _, err := protocol.NewRoundRobin(nil); err == nil {
		t.Error("empty worker set must fail")
	}
	if _, err := protocol.NewRoundRobin([]ids.NodeID{0, ids.Origin}); err == nil {
		t.Error("non-proxy worker in the dispatcher's set must fail")
	}
	if _, err := lru.NewPolicy(ids.Origin, 4, nil, ids.Origin); err == nil {
		t.Error("non-proxy worker ID must fail")
	}
	if _, err := lru.NewPolicy(0, 0, nil, ids.Origin); err == nil {
		t.Error("zero cache must fail")
	}
}

// TestConcurrentMissesInsertOnce: two misses for one object both learn its
// reply; the second finds it cached, which is a refresh, not an insertion.
func TestConcurrentMissesInsertOnce(t *testing.T) {
	p := newPolicy(t, 0, 4, ids.Origin)
	for range 2 {
		if hit, _, _ := p.Arrive(7, ids.None); hit {
			t.Fatal("cold cache hit")
		}
		p.Route(7, false, false, true, nil)
	}
	for range 2 {
		p.Learn(7, ids.None, false, ids.None, protocol.Advert{})
	}
	if st := p.Counters(); st.CacheInsertions != 1 || st.ForwardOrigin != 2 || st.RepliesSeen != 2 {
		t.Errorf("insertions/origin fetches/replies = %d/%d/%d, want 1/2/2",
			st.CacheInsertions, st.ForwardOrigin, st.RepliesSeen)
	}
}

func TestMissClimbsTreeAndPopulatesBothLevels(t *testing.T) {
	eng, leaves, root := treeRig(t, 2, 8)
	s := newSink(t, eng)
	rep := send(t, eng, s, 0, 42, 1)
	if !rep.FromOrigin {
		t.Error("first request must come from the origin")
	}
	// client→leaf, leaf→root, root→origin + reply legs = 6 hops.
	if rep.Hops != 6 {
		t.Errorf("miss hops = %d, want 6", rep.Hops)
	}
	if held(leaves[0]) != 1 || held(root) != 1 {
		t.Error("both the leaf and the root must cache the passing object")
	}
	if held(leaves[1]) != 0 {
		t.Error("the other leaf must not cache")
	}
	if rep.Resolver != root.ID() {
		t.Errorf("resolver = %v, want the root, the first holder on the way back", rep.Resolver)
	}
}

func TestLeafHitIsTwoHops(t *testing.T) {
	eng, _, _ := treeRig(t, 2, 8)
	s := newSink(t, eng)
	send(t, eng, s, 0, 7, 1)
	rep := send(t, eng, s, 0, 7, 2)
	if rep.FromOrigin || rep.Hops != 2 {
		t.Errorf("leaf hit = origin:%v hops:%d, want hit with 2", rep.FromOrigin, rep.Hops)
	}
}

func TestSiblingBenefitsFromSharedParent(t *testing.T) {
	// The whole point of a hierarchy: leaf 1's miss is leaf 0's
	// earlier fetch, served by the shared root at 4 hops.
	eng, leaves, _ := treeRig(t, 2, 8)
	s := newSink(t, eng)
	send(t, eng, s, 0, 7, 1)
	rep := send(t, eng, s, 1, 7, 2)
	if rep.FromOrigin {
		t.Error("sibling request must hit the shared parent")
	}
	if rep.Hops != 4 {
		t.Errorf("parent hit hops = %d, want 4", rep.Hops)
	}
	if held(leaves[1]) != 1 {
		t.Error("second leaf must cache the passing object")
	}
}

func TestLRUChurnBounded(t *testing.T) {
	eng, leaves, root := treeRig(t, 1, 4)
	s := newSink(t, eng)
	for i := uint64(1); i <= 50; i++ {
		send(t, eng, s, 0, ids.ObjectID(i), i)
	}
	if held(leaves[0]) > 4 || held(root) > 4 {
		t.Error("cache bounds violated")
	}
	if leaves[0].Stats().CacheEvictions == 0 {
		t.Error("no evictions under churn")
	}
}

func TestEverythingPassesTheCoordinator(t *testing.T) {
	eng, co, _ := coordRig(t, 2, 8)
	s := newSink(t, eng)
	// Miss: c→co→w→o→w→co→c = 6 hops.
	rep := send(t, eng, s, co.ID(), 7, 1)
	if !rep.FromOrigin || rep.Hops != 6 {
		t.Errorf("miss = origin:%v hops:%d, want origin at 6", rep.FromOrigin, rep.Hops)
	}
	// Round-robin sends request 2 to the other worker (miss again);
	// request 3 lands back on worker 0: hit at 4 hops via coordinator.
	send(t, eng, s, co.ID(), 7, 2)
	rep = send(t, eng, s, co.ID(), 7, 3)
	if rep.FromOrigin || rep.Hops != 4 {
		t.Errorf("hit = origin:%v hops:%d, want hit at 4", rep.FromOrigin, rep.Hops)
	}
	st := co.Stats()
	if st.Requests != 3 || st.RepliesSeen != 3 {
		t.Errorf("coordinator saw %d requests / %d replies, want 3/3", st.Requests, st.RepliesSeen)
	}
	if held(co) != 0 || co.PendingLen() != 0 {
		t.Errorf("coordinator holds %d objects and %d pending passes, want none", held(co), co.PendingLen())
	}
}

func TestContentBlindDuplication(t *testing.T) {
	// The coordinator's weakness: the same object lands on every
	// worker, wasting capacity (what ADC's agreement avoids).
	eng, co, ws := coordRig(t, 3, 8)
	s := newSink(t, eng)
	for i := uint64(1); i <= 6; i++ {
		send(t, eng, s, co.ID(), 42, i)
	}
	copies := 0
	for _, w := range ws {
		if held(w) == 1 {
			copies++
		}
	}
	if copies != 3 {
		t.Errorf("object duplicated on %d workers, want all 3", copies)
	}
}
