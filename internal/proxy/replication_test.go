package proxy

import (
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/sim"
)

func testReplication() protocol.Replication {
	return protocol.Replication{Enabled: true, HotThreshold: 2, MaxReplicas: 2, Window: 1 << 30, DropThreshold: 1}
}

// replicatedRig is rig() with the replication controller on.
func replicatedRig(t *testing.T, n int, rep protocol.Replication) (*sim.Engine, []*ADC) {
	t.Helper()
	peerIDs := make([]ids.NodeID, n)
	for i := range peerIDs {
		peerIDs[i] = ids.NodeID(i)
	}
	eng := sim.NewEngine()
	proxies := make([]*ADC, n)
	for i := range proxies {
		p, err := New(Config{ID: ids.NodeID(i), Peers: peerIDs, Tables: testTables(), Seed: 42, Replication: rep})
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
	return eng, proxies
}

func TestNewRejectsInvalidReplication(t *testing.T) {
	if _, err := New(Config{ID: 0, Peers: []ids.NodeID{0}, Tables: testTables(),
		Replication: protocol.Replication{Enabled: true, HotThreshold: -3}}); err == nil {
		t.Error("New must reject an invalid replication config")
	}
}

func TestReplicationPushesAndServesReplicaHits(t *testing.T) {
	// Converged hotspot setup: proxy 0 holds the hot object, proxy 1 has
	// learned that location and forwards every request there. The push
	// must ride the very next reply through proxy 1, which adopts the
	// copy and serves later requests itself.
	eng, proxies := replicatedRig(t, 2, testReplication())
	s := &sink{id: ids.Client(0)}
	if err := eng.Register(s); err != nil {
		t.Fatal(err)
	}
	holder, entry := proxies[0], proxies[1]
	const obj = ids.ObjectID(7)
	if _, adopted := holder.Tables().ForceCache(obj, 0, 1, 0); !adopted {
		t.Fatal("setup: ForceCache failed")
	}
	// Two direct client hits run the object hot at the holder (≥
	// HotThreshold); a client is no push target, so nothing is pushed yet.
	send(t, eng, s, 0, obj, 1)
	send(t, eng, s, 0, obj, 2)
	if holder.Stats().ReplicaPushes != 0 {
		t.Fatal("holder pushed a replica to a client")
	}
	entry.Tables().Update(obj, 0, 1)

	rep := send(t, eng, s, 1, obj, 3)
	if !rep.Cached || rep.Resolver != 0 {
		t.Fatalf("reply = %+v, want cached hit resolved at proxy 0", rep)
	}
	if holder.Stats().ReplicaPushes != 1 {
		t.Fatalf("holder ReplicaPushes = %d, want 1", holder.Stats().ReplicaPushes)
	}
	if !entry.Tables().IsCached(obj) {
		t.Fatal("entry proxy did not adopt the pushed replica")
	}

	// Later requests through proxy 1 are local replica hits (which also
	// proves the adopted copy was marked as a held replica):
	// the head object's load no longer concentrates on proxy 0.
	before := holder.Stats().Requests
	for i := uint64(4); i <= 7; i++ {
		send(t, eng, s, 1, obj, i)
	}
	if entry.Stats().ReplicaHits != 4 {
		t.Errorf("entry ReplicaHits = %d, want 4", entry.Stats().ReplicaHits)
	}
	if holder.Stats().Requests != before {
		t.Errorf("holder saw %d more requests after replication", holder.Stats().Requests-before)
	}
	for _, p := range proxies {
		if p.PendingLen() != 0 {
			t.Errorf("proxy %v has %d dangling pending entries", p.ID(), p.PendingLen())
		}
	}
}

func TestReplicationDeterministicAcrossRuns(t *testing.T) {
	run := func() []ids.NodeID {
		eng, proxies := replicatedRig(t, 5, protocol.Replication{Enabled: true, HotThreshold: 2, MaxReplicas: 3, Window: 128, DropThreshold: 1})
		s := &sink{id: ids.Client(0)}
		if err := eng.Register(s); err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 500; i++ {
			send(t, eng, s, ids.NodeID(i%5), ids.ObjectID(i%11), i)
		}
		var out []ids.NodeID
		for _, p := range proxies {
			st := p.Stats()
			out = append(out,
				ids.NodeID(st.Requests), ids.NodeID(st.LocalHits),
				ids.NodeID(st.ReplicaPushes), ids.NodeID(st.ReplicaDrops),
				ids.NodeID(st.ReplicaHits), ids.NodeID(st.ForwardLearned),
				ids.NodeID(p.Tables().Len()))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %v vs %v", i, a, b)
		}
	}
}
