package protocol

import (
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/obs"
)

func testTables() core.Config {
	return core.Config{SingleSize: 64, MultipleSize: 32, CachingSize: 16}
}

func testReplication() Replication {
	return Replication{Enabled: true, HotThreshold: 2, MaxReplicas: 2, Window: 1 << 30, DropThreshold: 1}
}

// testAgent builds an agent among peers 0..n-1 with the controller on.
func testAgent(t *testing.T, id ids.NodeID, n int) *Agent {
	t.Helper()
	peers := make([]ids.NodeID, n)
	for i := range peers {
		peers[i] = ids.NodeID(i)
	}
	a, err := New(Config{ID: id, Peers: peers, Tables: testTables(), Seed: 1, Replication: testReplication()})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestReplicationValidate(t *testing.T) {
	if err := (Replication{}).Validate(); err != nil {
		t.Errorf("zero value must validate, got %v", err)
	}
	norm := Replication{Enabled: true}.Normalize()
	if norm.HotThreshold != 32 || norm.MaxReplicas != 3 || norm.Window != 1024 || norm.DropThreshold != 1 {
		t.Errorf("defaults = %+v", norm)
	}
	if err := norm.Validate(); err != nil {
		t.Errorf("normalized config must validate, got %v", err)
	}
	bad := []Replication{
		{Enabled: true, HotThreshold: -1, MaxReplicas: 1, Window: 1, DropThreshold: 1},
		{Enabled: true, HotThreshold: 1, MaxReplicas: -1, Window: 1, DropThreshold: 1},
		{Enabled: true, HotThreshold: 1, MaxReplicas: 1, Window: -1, DropThreshold: 1},
		{Enabled: true, HotThreshold: 1, MaxReplicas: 1, Window: 1, DropThreshold: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: %+v must fail validation", i, cfg)
		}
	}
	if _, err := New(Config{ID: 0, Peers: []ids.NodeID{0}, Tables: testTables(),
		Replication: Replication{Enabled: true, HotThreshold: -3}}); err == nil {
		t.Error("New must reject an invalid replication config")
	}
}

func TestRollWindowDropsColdNonAnchorReplica(t *testing.T) {
	p := testAgent(t, 2, 3)
	const obj = ids.ObjectID(9)
	// Pretend a replica of obj was pushed here, primary at proxy 1.
	if _, adopted := p.tables.ForceCache(obj, 1, 1, 0); !adopted {
		t.Fatal("setup: ForceCache failed")
	}
	p.replica.held[obj] = struct{}{}
	p.replica.track(obj)

	p.rollWindow() // zero hits this window → cold
	if p.tables.IsCached(obj) {
		t.Error("cold non-anchor replica still cached after roll")
	}
	if p.Stats.ReplicaDrops != 1 {
		t.Errorf("ReplicaDrops = %d, want 1", p.Stats.ReplicaDrops)
	}
	loc, ok := p.tables.ForwardLocation(obj)
	if !ok || loc != 1 {
		t.Errorf("post-drop location = (%v, %v), want anchor 1", loc, ok)
	}
	if len(p.replica.tracked) != 0 {
		t.Errorf("tracked = %v, want empty", p.replica.tracked)
	}
}

func TestRollWindowAnchorKeepsCopyAndStopsAdvertising(t *testing.T) {
	p := testAgent(t, 0, 3)
	const obj = ids.ObjectID(9)
	// This proxy holds the copy and pushed a replica to proxy 2.
	if _, adopted := p.tables.ForceCache(obj, 0, 1, 0); !adopted {
		t.Fatal("setup: ForceCache failed")
	}
	p.tables.AddReplica(obj, 2, 2)
	p.replica.track(obj)

	p.rollWindow()
	if !p.tables.IsCached(obj) {
		t.Error("anchor dropped its copy; at least one holder must survive")
	}
	if _, replicas, _ := p.tables.ForwardSet(obj); replicas != nil {
		t.Errorf("anchor still advertises %v after cold roll", replicas)
	}
	if p.Stats.ReplicaDrops != 0 {
		t.Errorf("ReplicaDrops = %d, want 0 (anchor keeps the copy)", p.Stats.ReplicaDrops)
	}
}

func TestRollWindowKeepsHotReplica(t *testing.T) {
	p := testAgent(t, 2, 3)
	const obj = ids.ObjectID(9)
	p.tables.ForceCache(obj, 1, 1, 0)
	p.replica.held[obj] = struct{}{}
	p.replica.track(obj)
	p.noteHit(obj) // one hit ≥ DropThreshold 1

	p.rollWindow()
	if !p.tables.IsCached(obj) {
		t.Error("hot replica dropped at roll")
	}
	if len(p.replica.tracked) != 1 {
		t.Errorf("tracked = %v, want [%d]", p.replica.tracked, obj)
	}
	if len(p.replica.hot) != 0 {
		t.Error("hit counts must reset at the window roll")
	}
	if p.Stats.ReplicaHits != 1 {
		t.Errorf("ReplicaHits = %d, want 1", p.Stats.ReplicaHits)
	}
}

func TestForwardAddrPowerOfTwoChoices(t *testing.T) {
	p := testAgent(t, 0, 3)
	route := func(obj ids.ObjectID) (ids.NodeID, int64) {
		return p.Route(obj, false, false, true, nil)
	}
	const obj = ids.ObjectID(3)
	p.tables.Update(obj, 1, 1)
	p.tables.AddReplica(obj, 2, 2)

	// Tie at zero load: the lower proxy ID wins deterministically.
	to, reason := route(obj)
	if reason != obs.ReasonLearned || to != 1 {
		t.Fatalf("tie-break forward = (%v, %v), want (1, learned)", to, obs.ForwardReasonString(reason))
	}
	// Choosing 1 charged its load estimate, so 2 must win now.
	if to, _ = route(obj); to != 2 {
		t.Fatalf("second forward = %v, want 2 (lower load)", to)
	}
	// Pile load onto 2; routing must move back to 1.
	for i := 0; i < 8; i++ {
		p.replica.addLoad(2)
	}
	if to, _ = route(obj); to != 1 {
		t.Fatalf("loaded forward = %v, want 1", to)
	}

	// Single known holder: plain learned forward.
	const obj2 = ids.ObjectID(4)
	p.tables.Update(obj2, 2, 2)
	to, reason = route(obj2)
	if reason != obs.ReasonLearned || to != 2 {
		t.Fatalf("single-holder forward = (%v, %v), want (2, learned)", to, obs.ForwardReasonString(reason))
	}

	// THIS entry with no replicas still goes to the origin.
	const obj3 = ids.ObjectID(5)
	p.tables.Update(obj3, 0, 3)
	to, reason = route(obj3)
	if reason != obs.ReasonSelfOrigin || to != ids.Origin {
		t.Fatalf("THIS forward = (%v, %v), want (Origin, self-origin)", to, obs.ForwardReasonString(reason))
	}
}

func TestReplicationRestartResetsController(t *testing.T) {
	p := testAgent(t, 0, 2)
	const obj = ids.ObjectID(1)
	p.tables.ForceCache(obj, 0, 1, 0)
	p.noteHit(obj)
	p.replica.held[obj] = struct{}{}
	p.replica.track(obj)
	p.replica.addLoad(1)

	p.Restart(false)
	r := p.replica
	if r == nil {
		t.Fatal("controller gone after restart")
	}
	if len(r.hot) != 0 || len(r.tracked) != 0 || len(r.held) != 0 || r.loadOf(1) != 0 {
		t.Errorf("controller state survived restart: hot=%v tracked=%v held=%v load=%d",
			r.hot, r.tracked, r.held, r.loadOf(1))
	}
}
