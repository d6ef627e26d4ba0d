package msg

import (
	"reflect"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
)

func TestAtMaxHops(t *testing.T) {
	r := &Request{MaxHops: 2}
	if r.AtMaxHops() {
		t.Error("empty path must not be at max hops")
	}
	r.Path = []ids.NodeID{1, 2}
	if !r.AtMaxHops() {
		t.Error("path at bound must report max hops")
	}
	unbounded := &Request{MaxHops: 0, Path: make([]ids.NodeID, 100)}
	if unbounded.AtMaxHops() {
		t.Error("MaxHops 0 must mean unbounded (the paper's setting)")
	}
}

func TestInitFromCopiesIdentity(t *testing.T) {
	req := &Request{
		To: 2, ID: ids.NewRequestID(1, 2), Object: 9,
		Client: ids.Client(1), Sender: 2,
		Path: []ids.NodeID{3, 4}, Hops: 5, MaxHops: 8, SentAt: 77,
	}
	// A recycled reply carries its last use's state; InitFrom must
	// overwrite every field of it.
	rep := &Reply{
		To: 6, Resolver: 3, Cached: true, FromOrigin: true,
		Replicas: []ids.NodeID{1}, Replicate: true, AvgHint: 40,
	}
	rep.InitFrom(req)
	want := Reply{
		ID: req.ID, Object: 9, Client: ids.Client(1),
		Resolver: ids.None, // the paper's NULL
		Path:     req.Path, Hops: 5, PathLen: 2, SentAt: 77,
	}
	if !reflect.DeepEqual(*rep, want) {
		t.Errorf("InitFrom = %+v, want %+v", *rep, want)
	}
}

func TestNextBackwardWalksPathInReverse(t *testing.T) {
	rep := &Reply{Client: ids.Client(0), Path: []ids.NodeID{1, 2, 3}}
	want := []ids.NodeID{3, 2, 1}
	for _, w := range want {
		next, onPath := rep.NextBackward()
		if !onPath || next != w {
			t.Fatalf("NextBackward = %v,%v, want %v,true", next, onPath, w)
		}
	}
	next, onPath := rep.NextBackward()
	if onPath || next != ids.Client(0) {
		t.Errorf("exhausted path must return the client, got %v,%v", next, onPath)
	}
}

func TestNextBackwardDuplicatePath(t *testing.T) {
	// Loops put the same proxy on the path twice; backwarding must
	// visit it twice (§III.1).
	rep := &Reply{Client: ids.Client(0), Path: []ids.NodeID{1, 2, 1}}
	seq := []ids.NodeID{}
	for {
		next, onPath := rep.NextBackward()
		if !onPath {
			break
		}
		seq = append(seq, next)
	}
	if len(seq) != 3 || seq[0] != 1 || seq[1] != 2 || seq[2] != 1 {
		t.Errorf("backward sequence = %v, want [1 2 1]", seq)
	}
}

func TestDest(t *testing.T) {
	if (&Request{To: 4}).Dest() != 4 {
		t.Error("request Dest wrong")
	}
	if (&Reply{To: ids.Origin}).Dest() != ids.Origin {
		t.Error("reply Dest wrong")
	}
}
