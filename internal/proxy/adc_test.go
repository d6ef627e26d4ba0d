package proxy

import (
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

func testTables() core.Config {
	return core.Config{SingleSize: 64, MultipleSize: 32, CachingSize: 16}
}

// rig assembles n ADC proxies plus an origin on a fresh engine.
func rig(t *testing.T, n int) (*sim.VEngine, []*ADC) {
	t.Helper()
	peerIDs := make([]ids.NodeID, n)
	for i := range peerIDs {
		peerIDs[i] = ids.NodeID(i)
	}
	eng := sim.NewVEngine(sim.LatencyModel{})
	proxies := make([]*ADC, n)
	for i := range proxies {
		p := newAgentNode(t, protocol.Config{ID: ids.NodeID(i), Peers: peerIDs, Tables: testTables(), Seed: 42})
		proxies[i] = p
		if err := eng.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Register(sim.NewOrigin()); err != nil {
		t.Fatal(err)
	}
	return eng, proxies
}

// sink records replies addressed to a client.
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
		To:     to,
		ID:     ids.NewRequestID(0, counter),
		Object: obj,
		Client: s.id,
		Sender: s.id,
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.replies) != before+1 {
		t.Fatalf("expected exactly one reply, got %d new", len(s.replies)-before)
	}
	return s.replies[len(s.replies)-1]
}

// newAgentNode builds an ADC proxy node: cfg's protocol agent driven by a
// node without recovery.
func newAgentNode(t *testing.T, cfg protocol.Config) *ADC {
	t.Helper()
	a, err := protocol.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{ID: cfg.ID, Policy: a})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// agent returns an ADC node's protocol agent.
func agent(p *ADC) *protocol.Agent { return p.policy.(*protocol.Agent) }

func TestNewValidation(t *testing.T) {
	a, err := protocol.New(protocol.Config{ID: 0, Peers: []ids.NodeID{0}, Tables: testTables()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{ID: ids.Origin, Policy: a}); err == nil {
		t.Error("non-proxy ID must fail")
	}
	if _, err := New(Config{ID: 0}); err == nil {
		t.Error("a node without a policy must fail")
	}
	if _, err := New(Config{ID: 0, Policy: a, Recovery: sim.Recovery{Enabled: true, Timeout: -1}}); err == nil {
		t.Error("invalid recovery must fail")
	}
}

func TestEveryRequestResolves(t *testing.T) {
	// Invariant 4 (DESIGN.md §10): every request terminates with exactly
	// one reply to the client and pending state drains.
	eng, proxies := rig(t, 4)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 200; i++ {
		send(t, eng, s, ids.NodeID(i%4), ids.ObjectID(i%37), i)
	}
	if len(s.replies) != 200 {
		t.Fatalf("replies = %d, want 200", len(s.replies))
	}
	for _, p := range proxies {
		if p.PendingLen() != 0 {
			t.Errorf("proxy %v has %d dangling pending entries", p.ID(), p.PendingLen())
		}
	}
}

func TestUnexpectedReplyIsCountedAndHarmless(t *testing.T) {
	// Defensive reply handling: a reply with no live pending entry —
	// expired by the recovery TTL, a duplicate from a retransmitted
	// chain, or arriving at a restarted proxy — must be counted, must not
	// resurrect or underflow loop-detection state, and still backwards
	// normally (its routing needs only its own path).
	eng, proxies := rig(t, 3)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}

	// A run of ordinary traffic so tables are warm and pending is empty.
	for i := uint64(1); i <= 50; i++ {
		send(t, eng, s, ids.NodeID(i%3), ids.ObjectID(i%7), i)
	}
	if n := proxies[0].Stats().UnexpectedReplies; n != 0 {
		t.Fatalf("lossless traffic produced %d unexpected replies", n)
	}

	// An unsolicited reply: its RequestID was never pending anywhere.
	eng.Send(&msg.Reply{
		To:       0,
		ID:       ids.NewRequestID(0, 9999),
		Object:   3,
		Client:   s.id,
		Resolver: 1,
		Cached:   true,
	})
	before := len(s.replies)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := proxies[0].Stats().UnexpectedReplies; got != 1 {
		t.Errorf("UnexpectedReplies = %d, want 1", got)
	}
	if len(s.replies) != before+1 {
		t.Errorf("unsolicited reply did not backward to the client (got %d new)", len(s.replies)-before)
	}
	for _, p := range proxies {
		if p.PendingLen() != 0 {
			t.Errorf("proxy %v resurrected pending state: %d entries", p.ID(), p.PendingLen())
		}
	}

	// The system keeps working: more traffic resolves and drains cleanly.
	for i := uint64(100); i < 150; i++ {
		send(t, eng, s, ids.NodeID(i%3), ids.ObjectID(i%7), i)
	}
	for _, p := range proxies {
		if p.PendingLen() != 0 {
			t.Errorf("proxy %v has %d dangling pending entries", p.ID(), p.PendingLen())
		}
	}
}

func TestFirstRequestGoesThroughOriginAndCreatesEntries(t *testing.T) {
	eng, proxies := rig(t, 3)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	rep := send(t, eng, s, 0, 99, 1)
	if !rep.FromOrigin {
		t.Error("first request for an object must come from the origin")
	}
	if rep.Resolver == ids.None {
		t.Error("a proxy on the backwarding path must have claimed resolver")
	}
	// Every path proxy must now have an entry for the object, pointing
	// at the same resolver (backwarding agreement, invariant 6) —
	// except the resolver itself, whose entry says THIS.
	for _, p := range proxies {
		e, kind := agent(p).Tables().Lookup(99)
		if kind == core.KindNone {
			continue // not on the path
		}
		if e.Location != rep.Resolver {
			t.Errorf("proxy %v maps object to %v, want %v", p.ID(), e.Location, rep.Resolver)
		}
	}
}

func TestBackwardingAgreement(t *testing.T) {
	// After enough traffic, all proxies that know an object agree on
	// one location for it once it is cached and hit repeatedly.
	eng, proxies := rig(t, 5)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	const obj = 7
	counter := uint64(0)
	for round := 0; round < 40; round++ {
		for entry := 0; entry < 5; entry++ {
			counter++
			send(t, eng, s, ids.NodeID(entry), obj, counter)
		}
	}
	// The object must be cached somewhere by now.
	cachedAt := []ids.NodeID{}
	for _, p := range proxies {
		if agent(p).Tables().IsCached(obj) {
			cachedAt = append(cachedAt, p.ID())
		}
	}
	if len(cachedAt) == 0 {
		t.Fatal("hot object never got cached")
	}
	// Every proxy's mapping must point at a proxy that caches the
	// object (or be a cache holder itself).
	isCacher := make(map[ids.NodeID]bool, len(cachedAt))
	for _, id := range cachedAt {
		isCacher[id] = true
	}
	for _, p := range proxies {
		e, kind := agent(p).Tables().Lookup(obj)
		if kind == core.KindNone {
			t.Errorf("proxy %v forgot the hot object", p.ID())
			continue
		}
		if !isCacher[e.Location] {
			t.Errorf("proxy %v maps hot object to %v which does not cache it (cachers: %v)",
				p.ID(), e.Location, cachedAt)
		}
	}
}

func TestHotObjectServedFromCacheEventually(t *testing.T) {
	eng, proxies := rig(t, 3)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := uint64(1); i <= 60; i++ {
		rep := send(t, eng, s, ids.NodeID(i%3), 5, i)
		if !rep.FromOrigin {
			hits++
		}
	}
	if hits < 40 {
		t.Errorf("hot object hit only %d/60 times", hits)
	}
	var localHits uint64
	for _, p := range proxies {
		localHits += p.Stats().LocalHits
	}
	if localHits == 0 {
		t.Error("no proxy recorded a local hit")
	}
}

func TestMaxHopsBoundsPath(t *testing.T) {
	peerIDs := []ids.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	eng := sim.NewVEngine(sim.LatencyModel{})
	for _, id := range peerIDs {
		p := newAgentNode(t, protocol.Config{ID: id, Peers: peerIDs, Tables: testTables(), Seed: 1})
		if err := eng.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Register(sim.NewOrigin()); err != nil {
		t.Fatal(err)
	}
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	const maxHops = 2
	for i := uint64(1); i <= 100; i++ {
		eng.Send(&msg.Request{
			To:      ids.NodeID(i % 8),
			ID:      ids.NewRequestID(0, i),
			Object:  ids.ObjectID(1000 + i), // all cold: worst-case walks
			Client:  s.id,
			Sender:  s.id,
			MaxHops: maxHops,
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		rep := s.replies[len(s.replies)-1]
		// The path may exceed MaxHops by exactly one entry: the proxy
		// that observes the bound still appends itself before
		// forwarding to the origin.
		if rep.PathLen > maxHops+1 {
			t.Fatalf("request %d path length %d exceeds bound %d", i, rep.PathLen, maxHops+1)
		}
	}
}

func TestLoopDetectionSendsToOrigin(t *testing.T) {
	// Two proxies, object unknown: force proxy 0 to pick proxy 1, and
	// proxy 1 to pick proxy 0 by making its only peer choice loop back.
	// With peers = {0, 1}, random choice may self-loop or bounce; in
	// either case the search must terminate and record a loop or reach
	// the origin via the THIS rule — never run forever.
	eng, proxies := rig(t, 2)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		send(t, eng, s, 0, ids.ObjectID(500+i), i)
	}
	var loops uint64
	for _, p := range proxies {
		loops += p.Stats().LoopsDetected
	}
	if loops == 0 {
		t.Error("50 cold walks over 2 proxies should detect at least one loop")
	}
}

func TestReplyPathRetracesForwardPath(t *testing.T) {
	// Hop conservation: hops = pathLen (client→…→resolver side) +
	// pathLen backwarding + 2 endpoints for origin-resolved requests:
	// total = 2·(pathLen)+2 when the origin resolves,
	// and 2·pathLen + 2 when a proxy at the end of the path resolves
	// (its own two transfers are counted in the formula's endpoints).
	eng, _ := rig(t, 4)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		rep := send(t, eng, s, ids.NodeID(i%4), ids.ObjectID(i), i)
		var want int
		if rep.FromOrigin {
			want = 2*rep.PathLen + 2
		} else {
			// Resolver proxy is not on Path: client→path→resolver
			// is PathLen+1 transfers, backwarding the same.
			want = 2 * (rep.PathLen + 1)
		}
		if rep.Hops != want {
			t.Fatalf("request %d: hops = %d, want %d (pathLen %d, origin %v)",
				i, rep.Hops, want, rep.PathLen, rep.FromOrigin)
		}
	}
}

func TestThisEntryForwardsToOrigin(t *testing.T) {
	// Build a proxy whose table says THIS for an uncached object; a
	// request must go straight to the origin (§III.3.2).
	peerIDs := []ids.NodeID{0}
	p := newAgentNode(t, protocol.Config{ID: 0, Peers: peerIDs, Tables: testTables(), Seed: 1})
	agent(p).Tables().Update(123, 0, 1) // creates single-table entry with loc=THIS

	eng := sim.NewVEngine(sim.LatencyModel{})
	if err := eng.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(sim.NewOrigin()); err != nil {
		t.Fatal(err)
	}
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	rep := send(t, eng, s, 0, 123, 1)
	if !rep.FromOrigin {
		t.Error("THIS entry for uncached object must resolve at the origin")
	}
	if rep.PathLen != 1 {
		t.Errorf("PathLen = %d, want 1 (direct to origin)", rep.PathLen)
	}
	if p.Stats().ForwardOrigin == 0 {
		t.Error("ForwardOrigin counter not incremented")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// Invariant 5: identical seeds/config ⇒ identical results.
	run := func() (uint64, uint64) {
		eng, proxies := rig(t, 5)
		s := &sink{id: ids.Client(0)}
		if err := eng.Register(s); err != nil {
			t.Fatal(err)
		}
		hits := uint64(0)
		for i := uint64(1); i <= 300; i++ {
			rep := send(t, eng, s, ids.NodeID(i%5), ids.ObjectID(i%50), i)
			if !rep.FromOrigin {
				hits++
			}
		}
		var localTimes uint64
		for _, p := range proxies {
			localTimes += uint64(agent(p).LocalTime())
		}
		return hits, localTimes
	}
	h1, t1 := run()
	h2, t2 := run()
	if h1 != h2 || t1 != t2 {
		t.Errorf("two identical runs diverged: (%d,%d) vs (%d,%d)", h1, t1, h2, t2)
	}
}

func TestLocalClockCountsRequestsOnly(t *testing.T) {
	eng, proxies := rig(t, 2)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	send(t, eng, s, 0, 1, 1)
	var reqs, clocks int64
	for _, p := range proxies {
		reqs += int64(p.Stats().Requests)
		clocks += agent(p).LocalTime()
	}
	if clocks != reqs {
		t.Errorf("local clocks %d != requests received %d (replies must not tick the clock)",
			clocks, reqs)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, proxies := rig(t, 3)
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 120; i++ {
		send(t, eng, s, ids.NodeID(i%3), ids.ObjectID(i%10), i)
	}
	var total ProxyTotals
	for _, p := range proxies {
		st := p.Stats()
		total.Requests += st.Requests
		total.Forwards += st.ForwardLearned + st.ForwardRandom + st.ForwardOrigin
		total.LocalHits += st.LocalHits
	}
	if total.Requests == 0 || total.Forwards == 0 {
		t.Fatal("stats not accumulating")
	}
	// Every received request either hit locally or was forwarded
	// exactly once (to a peer or the origin).
	if total.LocalHits+total.Forwards != total.Requests {
		t.Errorf("hits(%d) + forwards(%d) != requests(%d)",
			total.LocalHits, total.Forwards, total.Requests)
	}
}

// ProxyTotals aggregates counters for the accounting identity test.
type ProxyTotals struct {
	Requests  uint64
	Forwards  uint64
	LocalHits uint64
}

func TestWorksWithClientDriver(t *testing.T) {
	// End-to-end smoke with the real closed-loop client.
	peerIDs := []ids.NodeID{0, 1, 2}
	eng := sim.NewVEngine(sim.LatencyModel{})
	for _, id := range peerIDs {
		p := newAgentNode(t, protocol.Config{ID: id, Peers: peerIDs, Tables: testTables(), Seed: 7})
		if err := eng.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Register(sim.NewOrigin()); err != nil {
		t.Fatal(err)
	}
	objs := make([]ids.ObjectID, 500)
	for i := range objs {
		objs[i] = ids.ObjectID(i % 20)
	}
	cl, err := sim.NewClient(sim.ClientConfig{
		Source:  trace.NewSliceSource(objs),
		Proxies: peerIDs,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(cl); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !cl.Done() {
		t.Fatal("client did not finish")
	}
	if cl.Collector().CumHitRate() < 0.5 {
		t.Errorf("hit rate %.3f too low for a 20-object working set",
			cl.Collector().CumHitRate())
	}
}
