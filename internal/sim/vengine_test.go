package sim

import (
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/trace"
)

// delayProbe records the virtual arrival time of every request it sees.
type delayProbe struct {
	id      ids.NodeID
	arrived []int64
	reply   bool
}

func (p *delayProbe) ID() ids.NodeID { return p.id }
func (p *delayProbe) Handle(ctx Context, m msg.Message) {
	req, ok := m.(*msg.Request)
	if !ok {
		return
	}
	p.arrived = append(p.arrived, ctx.VNow())
	if p.reply {
		rep := Resolve(ctx, req)
		rep.Resolver = p.id
		rep.To = rep.Client
		ctx.Send(rep)
	}
}

func TestVEngineLatencyModelCost(t *testing.T) {
	l := LatencyModel{ClientProxy: 5, ProxyProxy: 10, ProxyOrigin: 50, Service: 1}
	cases := []struct {
		a, b ids.NodeID
		want int64
	}{
		{ids.Client(0), 2, 6},
		{2, ids.Client(0), 6},
		{1, 2, 11},
		{3, ids.Origin, 51},
		{ids.Origin, 3, 51},
	}
	for _, tc := range cases {
		if got, _ := l.cost(tc.a, tc.b); got != tc.want {
			t.Errorf("cost(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestVEngineDelaysDelivery(t *testing.T) {
	l := LatencyModel{ClientProxy: 7, ProxyProxy: 3, ProxyOrigin: 50}
	eng := NewVEngine(l)
	probe := &delayProbe{id: 0}
	if err := eng.Register(probe); err != nil {
		t.Fatal(err)
	}
	// Injection from outside any node (current = None → not client, not
	// origin → proxy-proxy price).
	eng.Send(&msg.Request{To: 0, Object: 1, Client: ids.Client(0)})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(probe.arrived) != 1 || probe.arrived[0] != 3 {
		t.Errorf("arrived = %v, want [3]", probe.arrived)
	}
}

func TestVEngineTimestampOrder(t *testing.T) {
	eng := NewVEngine(LatencyModel{})
	probe := &delayProbe{id: 0}
	if err := eng.Register(probe); err != nil {
		t.Fatal(err)
	}
	// Schedule out of order; delivery must be by timestamp.
	eng.After(30, &msg.Request{To: 0, Object: 30})
	eng.After(10, &msg.Request{To: 0, Object: 10})
	eng.After(20, &msg.Request{To: 0, Object: 20})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(probe.arrived) != 3 {
		t.Fatalf("arrived %d messages", len(probe.arrived))
	}
	if probe.arrived[0] != 10 || probe.arrived[1] != 20 || probe.arrived[2] != 30 {
		t.Errorf("arrival times = %v, want [10 20 30]", probe.arrived)
	}
}

func TestVEngineTieBreaksBySequence(t *testing.T) {
	eng := NewVEngine(LatencyModel{})
	seen := []ids.ObjectID{}
	node := &funcNode{id: 0, fn: func(_ Context, m msg.Message) {
		if req, ok := m.(*msg.Request); ok {
			seen = append(seen, req.Object)
		}
	}}
	if err := eng.Register(node); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		eng.After(42, &msg.Request{To: 0, Object: ids.ObjectID(i)})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, obj := range seen {
		if obj != ids.ObjectID(i+1) {
			t.Fatalf("tie order = %v, want FIFO by enqueue", seen)
		}
	}
}

type funcNode struct {
	id ids.NodeID
	fn func(Context, msg.Message)
}

func (n *funcNode) ID() ids.NodeID                  { return n.id }
func (n *funcNode) Handle(c Context, m msg.Message) { n.fn(c, m) }

func TestVEngineUnroutable(t *testing.T) {
	eng := NewVEngine(LatencyModel{})
	eng.Send(&msg.Request{To: 9})
	if err := eng.Run(); err == nil {
		t.Error("unroutable message must error")
	}
}

func TestClosedLoopClientRecordsResponseTime(t *testing.T) {
	l := LatencyModel{ClientProxy: 100, ProxyProxy: 10, ProxyOrigin: 1000}
	eng := NewVEngine(l)
	echo := &delayProbe{id: 0, reply: true}
	if err := eng.Register(echo); err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector(metrics.WithSampleEvery(0))
	cl, err := NewClient(ClientConfig{
		Source:    trace.NewSliceSource([]ids.ObjectID{1, 2, 3}),
		Proxies:   []ids.NodeID{0},
		Collector: col,
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
	// Round trip = client→proxy (100) + proxy→client (100) = 200.
	if s := col.Summary(); s.MeanResponse != 200 || s.MaxResponse != 200 || s.Requests != 3 {
		t.Errorf("mean/max response %v/%v over %d requests, want 200/200 over 3", s.MeanResponse, s.MaxResponse, s.Requests)
	}
}

func TestOpenLoopClientValidation(t *testing.T) {
	src := trace.NewSliceSource([]ids.ObjectID{1})
	if _, err := NewClient(ClientConfig{Proxies: []ids.NodeID{0}, IntervalTicks: 1}); err == nil {
		t.Error("missing source must fail")
	}
	if _, err := NewClient(ClientConfig{Source: src, IntervalTicks: 1}); err == nil {
		t.Error("missing proxies must fail")
	}
	if _, err := NewClient(ClientConfig{Source: src, Proxies: []ids.NodeID{0}, IntervalTicks: -1}); err == nil {
		t.Error("negative interval must fail")
	}
}

func TestOpenLoopClientInjectsAtRate(t *testing.T) {
	// Slow echo: replies take 1000 ticks round trip while requests
	// arrive every 100 ticks — the open loop must keep multiple
	// requests outstanding and still complete them all.
	l := LatencyModel{ClientProxy: 500, ProxyProxy: 1, ProxyOrigin: 1}
	eng := NewVEngine(l)
	echo := &delayProbe{id: 0, reply: true}
	if err := eng.Register(echo); err != nil {
		t.Fatal(err)
	}
	objs := make([]ids.ObjectID, 50)
	for i := range objs {
		objs[i] = ids.ObjectID(i)
	}
	col := metrics.NewCollector(metrics.WithSampleEvery(0))
	cl, err := NewClient(ClientConfig{
		Source:        trace.NewSliceSource(objs),
		Proxies:       []ids.NodeID{0},
		Collector:     col,
		IntervalTicks: 100,
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
		t.Fatal("open-loop client did not finish")
	}
	if col.Requests() != 50 {
		t.Errorf("completed %d requests, want 50", col.Requests())
	}
	if cl.inFlight != 0 {
		t.Errorf("outstanding = %d after completion", cl.inFlight)
	}
	// Fixed spacing: arrivals at the proxy must be exactly 100 apart.
	for i := 1; i < len(echo.arrived); i++ {
		if echo.arrived[i]-echo.arrived[i-1] != 100 {
			t.Fatalf("arrival gap %d at %d, want 100",
				echo.arrived[i]-echo.arrived[i-1], i)
		}
	}
	// Response time = 2×500 regardless of concurrency.
	if got := col.Summary().MeanResponse; got != 1000 {
		t.Errorf("mean response = %v, want 1000", got)
	}
}

func TestOpenLoopClientPoissonDeterministic(t *testing.T) {
	run := func() []int64 {
		eng := NewVEngine(LatencyModel{ClientProxy: 1})
		echo := &delayProbe{id: 0, reply: true}
		if err := eng.Register(echo); err != nil {
			t.Fatal(err)
		}
		objs := make([]ids.ObjectID, 30)
		cl, err := NewClient(ClientConfig{
			Source:        trace.NewSliceSource(objs),
			Proxies:       []ids.NodeID{0},
			IntervalTicks: 50,
			Poisson:       true,
			Seed:          7,
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
		return echo.arrived
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 30 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("poisson arrivals not deterministic at %d", i)
		}
		if i > 1 && a[i]-a[i-1] != a[i-1]-a[i-2] {
			varied = true
		}
	}
	if !varied {
		t.Error("poisson gaps look fixed")
	}
}

// TestReleaseHandsOnOnlyDrainedLanes: Release hands a drained engine's
// event lanes to the next NewVEngine, and no slot of them, up to capacity,
// still holds a message, so pooled lanes keep no delivered message alive.
// An engine whose queue still holds events hands nothing on.
func TestReleaseHandsOnOnlyDrainedLanes(t *testing.T) {
	for {
		if _, ok := released.Get(nil); !ok {
			break
		}
	}
	eng := NewVEngine(LatencyModel{ClientProxy: 500, ProxyProxy: 1, ProxyOrigin: 1})
	if err := eng.Register(&delayProbe{id: 0, reply: true}); err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(ClientConfig{
		Source:        trace.NewSliceSource(make([]ids.ObjectID, 50)),
		Proxies:       []ids.NodeID{0},
		Collector:     metrics.NewCollector(metrics.WithSampleEvery(0)),
		IntervalTicks: 100,
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
	for i, l := range eng.q.src {
		if len(l.ev) != 0 || l.head != 0 {
			t.Errorf("lane %d of a drained queue: len %d, head %d", i, len(l.ev), l.head)
		}
		for j, ev := range l.ev[:cap(l.ev)] {
			if ev.m != nil {
				t.Fatalf("lane %d slot %d of a drained queue still holds %T", i, j, ev.m)
			}
		}
	}
	client := eng.q.src[laneClient].ev[:1]
	eng.Release()
	next := NewVEngine(LatencyModel{})
	if got := next.q.src[laneClient].ev; cap(got) == 0 || &got[:1][0] != &client[0] {
		t.Fatal("the engine after a Release did not take the released lanes")
	}

	next.Send(&msg.Request{To: 0})
	next.Release()
	if s, ok := released.Get(nil); ok {
		t.Fatalf("an engine with %d queued events handed its storage on", s.q.Len())
	}
}
