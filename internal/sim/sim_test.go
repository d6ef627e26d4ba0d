package sim

import (
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/trace"
)

// echoNode answers every request straight back to the client, recording
// the order of received object IDs.
type echoNode struct {
	id   ids.NodeID
	seen []ids.ObjectID
}

func (n *echoNode) ID() ids.NodeID { return n.id }

func (n *echoNode) Handle(ctx Context, m msg.Message) {
	req, ok := m.(*msg.Request)
	if !ok {
		return
	}
	n.seen = append(n.seen, req.Object)
	rep := Resolve(ctx, req)
	rep.Resolver = n.id
	rep.To = rep.Client
	ctx.Send(rep)
}

func TestEngineDuplicateRegistration(t *testing.T) {
	e := NewVEngine(LatencyModel{})
	if err := e.Register(&echoNode{id: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(&echoNode{id: 1}); err == nil {
		t.Error("duplicate registration must fail")
	}
}

func TestEngineUnroutableMessage(t *testing.T) {
	e := NewVEngine(LatencyModel{})
	e.Send(&msg.Request{To: 42})
	if err := e.Run(); err == nil {
		t.Error("message to unregistered node must error")
	}
}

func TestEngineCountsHops(t *testing.T) {
	req := &msg.Request{To: 1}
	e := NewVEngine(LatencyModel{})
	e.Send(req)
	if req.Hops != 1 {
		t.Errorf("Hops after one Send = %d, want 1", req.Hops)
	}
	rep := &msg.Reply{To: 1}
	e.Send(rep)
	if rep.Hops != 1 {
		t.Errorf("reply Hops = %d, want 1", rep.Hops)
	}
}

func TestEngineFIFO(t *testing.T) {
	node := &echoNode{id: 0}
	sink := &echoNode{id: 1}
	e := NewVEngine(LatencyModel{})
	if err := e.Register(node); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(sink); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		e.Send(&msg.Request{To: 0, Object: ids.ObjectID(i), Client: 1})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(node.seen) != 100 {
		t.Fatalf("delivered %d, want 100", len(node.seen))
	}
	for i, obj := range node.seen {
		if obj != ids.ObjectID(i+1) {
			t.Fatalf("delivery %d = %v, want %v (FIFO violated)", i, obj, i+1)
		}
	}
	if e.Delivered() == 0 {
		t.Error("Delivered counter not advancing")
	}
}

func TestOriginResolvesAndBackwards(t *testing.T) {
	o := NewOrigin()
	if o.ID() != ids.Origin {
		t.Fatalf("origin ID = %v", o.ID())
	}
	e := NewVEngine(LatencyModel{})
	var got *msg.Reply
	catcher := &replyCatcher{id: 3, out: &got}
	if err := e.Register(o); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(catcher); err != nil {
		t.Fatal(err)
	}
	e.Send(&msg.Request{
		To: ids.Origin, Object: 7, Client: ids.Client(0),
		Path: []ids.NodeID{3},
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no reply reached the path proxy")
	}
	if !got.FromOrigin {
		t.Error("origin reply must be marked FromOrigin")
	}
	if got.Resolver != ids.None {
		t.Errorf("origin must leave Resolver unset, got %v", got.Resolver)
	}
	if got.PathLen != 1 {
		t.Errorf("PathLen = %d, want 1", got.PathLen)
	}
	if o.Resolved() != 1 {
		t.Errorf("Resolved = %d, want 1", o.Resolved())
	}
}

type replyCatcher struct {
	id  ids.NodeID
	out **msg.Reply
}

func (c *replyCatcher) ID() ids.NodeID { return c.id }
func (c *replyCatcher) Handle(_ Context, m msg.Message) {
	if rep, ok := m.(*msg.Reply); ok {
		*c.out = rep
	}
}

func TestOriginIgnoresReplies(t *testing.T) {
	o := NewOrigin()
	e := NewVEngine(LatencyModel{})
	if err := e.Register(o); err != nil {
		t.Fatal(err)
	}
	e.Send(&msg.Reply{To: ids.Origin})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if o.Resolved() != 0 {
		t.Error("a stray reply must not count as resolved")
	}
}

func TestClientClosedLoop(t *testing.T) {
	src := trace.NewSliceSource([]ids.ObjectID{5, 6, 7})
	col := metrics.NewCollector(metrics.WithSampleEvery(0))
	cl, err := NewClient(ClientConfig{
		Source:    src,
		Proxies:   []ids.NodeID{0},
		Collector: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := &echoNode{id: 0}
	e := NewVEngine(LatencyModel{})
	for _, n := range []Node{cl, node} {
		if err := e.Register(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !cl.Done() {
		t.Error("client must be done after draining its trace")
	}
	if col.Requests() != 3 {
		t.Errorf("recorded %d requests, want 3", col.Requests())
	}
	// Echo node resolves everything: all hits, 2 hops each (to, from).
	if col.Hits() != 3 {
		t.Errorf("hits = %d, want 3", col.Hits())
	}
	if got := col.CumHops(); got != 2 {
		t.Errorf("CumHops = %v, want 2", got)
	}
	if len(node.seen) != 3 {
		t.Errorf("proxy saw %d requests", len(node.seen))
	}
}

func TestClientDoneAfterLastReply(t *testing.T) {
	src := trace.NewSliceSource([]ids.ObjectID{1, 2})
	cl, err := NewClient(ClientConfig{
		Source:  src,
		Proxies: []ids.NodeID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Done() {
		t.Error("Done() before the run")
	}
	e := NewVEngine(LatencyModel{})
	node := &echoNode{id: 0}
	for _, n := range []Node{cl, node} {
		if err := e.Register(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !cl.Done() || cl.inFlight != 0 {
		t.Errorf("after the run: Done() = %v with %d outstanding, want true with 0", cl.Done(), cl.inFlight)
	}
}

func TestClientEntryPolicies(t *testing.T) {
	run := func(policy EntryPolicy, n int) map[ids.NodeID]int {
		objs := make([]ids.ObjectID, n)
		for i := range objs {
			objs[i] = ids.ObjectID(i)
		}
		nodes := []*echoNode{{id: 0}, {id: 1}, {id: 2}}
		cl, err := NewClient(ClientConfig{
			Source:  trace.NewSliceSource(objs),
			Proxies: []ids.NodeID{0, 1, 2},
			Policy:  policy,
			Seed:    9,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := NewVEngine(LatencyModel{})
		if err := e.Register(cl); err != nil {
			t.Fatal(err)
		}
		for _, nd := range nodes {
			if err := e.Register(nd); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		counts := make(map[ids.NodeID]int)
		for _, nd := range nodes {
			counts[nd.id] = len(nd.seen)
		}
		return counts
	}

	rr := run(EntryRoundRobin, 9)
	for id, c := range rr {
		if c != 3 {
			t.Errorf("round-robin proxy %v saw %d, want 3", id, c)
		}
	}
	fixed := run(EntryFixed, 9)
	if fixed[0] != 9 || fixed[1] != 0 || fixed[2] != 0 {
		t.Errorf("fixed policy spread = %v", fixed)
	}
	random := run(EntryRandom, 3000)
	for id, c := range random {
		if c < 800 || c > 1200 {
			t.Errorf("random proxy %v saw %d, want ≈1000", id, c)
		}
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{Proxies: []ids.NodeID{0}}); err == nil {
		t.Error("missing source must fail")
	}
	if _, err := NewClient(ClientConfig{Source: trace.NewSliceSource(nil)}); err == nil {
		t.Error("missing proxies must fail")
	}
}

func TestEntryPolicyString(t *testing.T) {
	if EntryRandom.String() != "random" || EntryRoundRobin.String() != "round-robin" ||
		EntryFixed.String() != "fixed" {
		t.Error("entry policy names wrong")
	}
	for _, p := range []EntryPolicy{EntryRandom, EntryRoundRobin, EntryFixed} {
		if back, err := ParseEntryPolicy(p.String()); err != nil || back != p {
			t.Errorf("ParseEntryPolicy(%q) = (%v, %v), want %v", p, back, err, p)
		}
	}
	if p, err := ParseEntryPolicy(""); err != nil || p != EntryRandom {
		t.Errorf(`ParseEntryPolicy("") = (%v, %v), want the random default`, p, err)
	}
	want := `unknown entry policy "sideways" (want random, round-robin or fixed)`
	if _, err := ParseEntryPolicy("sideways"); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ParseEntryPolicy(sideways) = %v, want an error containing %q", err, want)
	}
}
