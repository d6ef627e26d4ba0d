package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/trace"
)

// relay is a proxy stand-in that records every delivery it gets. Odd
// requests that have not yet made two hops are forwarded to the next relay
// (which the reply then retraces); the rest are answered at once. Every
// request also arms a timer for the relay itself, due 0, 100 or 3000 ticks
// later: inside the lookahead window that armed it, the same tick
// included.
type relay struct {
	id, next ids.NodeID
	armed    int
	log      []string
}

type relayTimer struct {
	to ids.NodeID
	n  int
}

func (t *relayTimer) Dest() ids.NodeID { return t.to }

func (r *relay) ID() ids.NodeID { return r.id }

func (r *relay) Isolated() bool { return true }

func (r *relay) Handle(ctx sim.Context, m msg.Message) {
	switch t := m.(type) {
	case *msg.Request:
		r.log = append(r.log, fmt.Sprintf("%d request %v hops %d", ctx.VNow(), t.ID, t.Hops))
		r.armed++
		ctx.After([]int64{0, 100, 3000}[r.armed%3], &relayTimer{to: r.id, n: r.armed})
		if t.ID%2 == 1 && t.Hops < 2 {
			t.Path = append(t.Path, r.id)
			t.Sender, t.To = r.id, r.next
			ctx.Send(t)
			return
		}
		rep := sim.Resolve(ctx, t)
		rep.Resolver = r.id
		rep.To, _ = rep.NextBackward()
		ctx.Send(rep)
	case *msg.Reply:
		r.log = append(r.log, fmt.Sprintf("%d reply %v hops %d", ctx.VNow(), t.ID, t.Hops))
		t.To, _ = t.NextBackward()
		ctx.Send(t)
	case *relayTimer:
		r.log = append(r.log, fmt.Sprintf("%d timer %d", ctx.VNow(), t.n))
	}
}

// recordingClient is a sim.Client that records every delivery it gets.
type recordingClient struct {
	*sim.Client
	log []string
}

func (c *recordingClient) Isolated() bool { return true }

func (c *recordingClient) Handle(ctx sim.Context, m msg.Message) {
	c.log = append(c.log, fmt.Sprintf("%d %T", ctx.VNow(), m))
	c.Client.Handle(ctx, m)
}

// windowRig runs 12 fixed-interval clients against 4 relays and returns
// every node's delivery record and the engine's delivery count. The
// clients share one 1000-tick interval, so their arrivals tie across nodes
// at every tick they inject; each one's own arrival timer lands inside the
// 5100-tick lookahead window that armed it, as do the relays' timers.
func windowRig(t *testing.T) (logs map[ids.NodeID][]string, delivered uint64, windows bool) {
	t.Helper()
	eng := sim.NewVEngine(sim.DefaultLatencyModel())
	defer eng.Release()
	const relays = 4
	proxies := make([]ids.NodeID, relays)
	var nodes []*relay
	for i := range proxies {
		proxies[i] = ids.NodeID(i)
		r := &relay{id: ids.NodeID(i), next: ids.NodeID((i + 1) % relays)}
		nodes = append(nodes, r)
		if err := eng.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	var clients []*recordingClient
	for i := 0; i < 12; i++ {
		cl, err := sim.NewClient(sim.ClientConfig{
			Index:         i,
			Source:        trace.NewSliceSource(benchObjects(40, 50)),
			Proxies:       proxies,
			Policy:        sim.EntryRoundRobin,
			Seed:          int64(i),
			IntervalTicks: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		rc := &recordingClient{Client: cl}
		clients = append(clients, rc)
		if err := eng.Register(rc); err != nil {
			t.Fatal(err)
		}
	}
	windows = eng.Windows()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	logs = make(map[ids.NodeID][]string)
	for _, r := range nodes {
		logs[r.id] = r.log
	}
	for _, c := range clients {
		if !c.Done() {
			t.Fatalf("client %v did not finish", c.ID())
		}
		logs[c.ID()] = c.log
	}
	return logs, eng.Delivered(), windows
}

// TestWindowsMatchOneEventAtATime: every node sees exactly the deliveries,
// at exactly the times and in exactly the order, that the
// one-event-at-a-time loop gives it, when every lookahead window is
// delivered on two goroutines — through same-tick ties across nodes and
// timers due inside the window that armed them, at the same tick too.
func TestWindowsMatchOneEventAtATime(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	want, wantDelivered, windows := windowRig(t)
	runtime.GOMAXPROCS(prev)
	if windows {
		t.Fatal("the reference run opened lookahead windows on one processor")
	}
	defer sim.ForceWindows()()
	got, gotDelivered, windows := windowRig(t)
	if !windows {
		t.Fatal("the rig is not window-safe")
	}
	if gotDelivered != wantDelivered {
		t.Errorf("windowed run delivered %d events, want %d", gotDelivered, wantDelivered)
	}
	for id, w := range want {
		if g := got[id]; !reflect.DeepEqual(g, w) {
			t.Errorf("node %v: %d deliveries in windows, %d one at a time; first difference:\n%s", id, len(g), len(w), firstDiff(g, w))
		}
	}
}

// firstDiff describes where two delivery records part.
func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("#%d: got %q, want %q", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("one is a prefix of the other (%d vs %d)", len(got), len(want))
}

// TestWindowWithUnregisteredNodeFailsRun: a window holding an event for a
// node nobody registered is put back and delivered one event at a time, so
// the run fails at that event as it does without windows.
func TestWindowWithUnregisteredNodeFailsRun(t *testing.T) {
	defer sim.ForceWindows()()
	eng := sim.NewVEngine(sim.DefaultLatencyModel())
	buildADCArray(t, eng, 2)
	for i := 0; i < 3; i++ {
		cl, err := sim.NewClient(sim.ClientConfig{
			Index:         i,
			Source:        trace.NewSliceSource(benchObjects(5, 10)),
			Proxies:       []ids.NodeID{0, 7}, // proxy 7 is not in the rig
			Seed:          1,
			IntervalTicks: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Register(cl); err != nil {
			t.Fatal(err)
		}
	}
	if !eng.Windows() {
		t.Fatal("the rig is not window-safe")
	}
	if err := eng.Run(); err == nil {
		t.Fatal("expected unregistered-node error, got nil")
	}
}

// TestReleasedStorageHoldsNoNode: the storage a windowed run releases keeps
// none of the run's nodes reachable, so the engine that takes it next does
// not hold the last run's node graph.
func TestReleasedStorageHoldsNoNode(t *testing.T) {
	defer sim.ForceWindows()()
	var finalized atomic.Int32
	held := releasedWindowedRun(t, &finalized)
	for i := 0; i < 20 && finalized.Load() == 0; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(held)
	if finalized.Load() == 0 {
		t.Fatal("the storage a windowed run released still reaches its nodes")
	}
}

// releasedWindowedRun runs 4 fixed-interval clients against 2 relays, each
// relay with a finalizer that counts into finalized, in lookahead windows,
// and returns what holds the storage the engine released.
func releasedWindowedRun(t *testing.T, finalized *atomic.Int32) any {
	t.Helper()
	eng := sim.NewVEngine(sim.DefaultLatencyModel())
	proxies := []ids.NodeID{0, 1}
	for _, id := range proxies {
		r := &relay{id: id, next: 1 - id}
		runtime.SetFinalizer(r, func(*relay) { finalized.Add(1) })
		if err := eng.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		cl, err := sim.NewClient(sim.ClientConfig{
			Index:         i,
			Source:        trace.NewSliceSource(benchObjects(20, 30)),
			Proxies:       proxies,
			Seed:          int64(i),
			IntervalTicks: 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Register(cl); err != nil {
			t.Fatal(err)
		}
	}
	if !eng.Windows() {
		t.Fatal("the rig is not window-safe")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng.ReleaseKeeping()
}
