package protocol

import (
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/obs"
)

// TestRoundRobinAssignment: the dispatcher cycles through its workers in
// order whatever the object, never hits, relays replies untouched, and
// starts the rotation over after a restart, its one piece of state.
func TestRoundRobinAssignment(t *testing.T) {
	r, err := NewRoundRobin([]ids.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		want := ids.NodeID(i % 3)
		if i >= 4 {
			want = ids.NodeID((i - 4) % 3)
		}
		if i == 4 {
			r.Restart(false)
		}
		if hit, _, _ := r.Arrive(ids.ObjectID(i%2), ids.None); hit {
			t.Fatal("the dispatcher hit")
		}
		if to, reason := r.Route(ids.ObjectID(i%2), false, false, true, nil); to != want || reason != obs.ReasonRandom {
			t.Fatalf("request %d routed to (%v, %s), want (%v, random)", i, to, obs.ForwardReasonString(reason), want)
		}
	}
	l := r.Learn(1, 2, true, ids.None, Advert{})
	if l.Resolver != 2 || !l.Cached || l.Holds {
		t.Errorf("learned %+v, want the reply relayed unchanged", l)
	}
	if st := r.Counters(); st.Requests != 9 || st.ForwardRandom != 9 || st.RepliesSeen != 1 {
		t.Errorf("counters = %+v", *st)
	}
	if held, cached := r.Occupancy(); held != 0 || cached != 0 {
		t.Errorf("occupancy = %d/%d, want 0/0", held, cached)
	}
}
