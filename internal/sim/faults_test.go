package sim

import (
	"math"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/trace"
)

// These tests probe the paper's load-bearing transport assumption:
// "we don't expect the loss of messages and ... always either one of the
// proxy objects or the actual origin server will finally resolve the
// request" (§III.1). The protocol has no timeouts or retransmissions, so
// a single lost message strands its request chain permanently — the
// fault-injection engine makes that concrete and measurable.

func TestLossStrandsClosedLoop(t *testing.T) {
	eng := NewVEngine(LatencyModel{ClientProxy: 1})
	echo := &delayProbe{id: 0, reply: true}
	if err := eng.Register(echo); err != nil {
		t.Fatal(err)
	}
	objs := make([]ids.ObjectID, 10)
	cl, err := NewClient(ClientConfig{
		Source:  trace.NewSliceSource(objs),
		Proxies: []ids.NodeID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(cl); err != nil {
		t.Fatal(err)
	}
	// Drop the 6th network transfer (the 3rd request's request leg).
	n := 0
	eng.SetDropFilter(func(m msg.Message) bool {
		n++
		return n == 6
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The engine drains (no livelock), but the closed loop is stranded:
	// the client never completes its trace and the loss is visible.
	if cl.Done() {
		t.Error("client completed despite a lost message — the protocol has no retransmission")
	}
	if eng.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", eng.Dropped())
	}
	if got := cl.Collector().Requests(); got != 2 {
		t.Errorf("completed %d requests before the loss, want 2", got)
	}
}

func TestLossStrandsOpenLoopPartially(t *testing.T) {
	// Open-loop injection keeps going past a loss (arrivals are timer
	// driven), so exactly the chains whose messages were dropped are
	// missing — loss is proportional, not total.
	eng := NewVEngine(LatencyModel{ClientProxy: 1})
	echo := &delayProbe{id: 0, reply: true}
	if err := eng.Register(echo); err != nil {
		t.Fatal(err)
	}
	objs := make([]ids.ObjectID, 20)
	cl, err := NewOpenLoopClient(OpenLoopConfig{
		Source:        trace.NewSliceSource(objs),
		Proxies:       []ids.NodeID{0},
		IntervalTicks: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(cl); err != nil {
		t.Fatal(err)
	}
	// Drop every 7th network transfer.
	n := 0
	eng.SetDropFilter(func(m msg.Message) bool {
		n++
		return n%7 == 0
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if cl.Done() {
		t.Error("open-loop client reported done despite stranded requests")
	}
	if cl.Outstanding() == 0 {
		t.Error("expected stranded outstanding requests after losses")
	}
	completed := cl.Collector().Requests()
	if completed == 0 || completed >= 20 {
		t.Errorf("completed = %d, want partial completion", completed)
	}
	if completed+uint64(cl.Outstanding()) != 20 {
		t.Errorf("completed %d + outstanding %d != injected 20",
			completed, cl.Outstanding())
	}
}

func TestDroppedSendIsNotRecycled(t *testing.T) {
	// Ownership rule: Send returning normally gives the caller no signal
	// that the fault filter discarded the message, so the engine must NOT
	// recycle a dropped message — the caller may still reference it. If
	// the engine fed dropped messages to its freelist, the next
	// AcquireRequest would hand the same struct to a different owner and
	// the caller's retained pointer would be silently rewritten.
	eng := NewVEngine(LatencyModel{ClientProxy: 1})
	eng.SetDropFilter(func(msg.Message) bool { return true })

	req := eng.AcquireRequest()
	req.To = 0
	req.ID = ids.NewRequestID(0, 1)
	req.Object = 77
	req.Client = ids.Client(0)
	eng.Send(req) // dropped: ownership stays with us

	// The freelist must not contain the dropped message: a fresh acquire
	// returns a different struct.
	next := eng.AcquireRequest()
	if next == req {
		t.Fatal("engine recycled a dropped message the caller still references")
	}
	// And the dropped message is untouched apart from the hop count that
	// Send legitimately added.
	if req.Object != 77 || req.ID != ids.NewRequestID(0, 1) || req.Hops != 1 {
		t.Errorf("dropped message mutated: %+v", req)
	}

	// Contrast: explicit release does recycle — pointer identity proves
	// the freelist path works when ownership is genuinely handed over.
	eng.ReleaseRequest(next)
	if got := eng.AcquireRequest(); got != next {
		t.Error("released request was not recycled")
	}
}

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
		ok   bool
	}{
		{"zero plan", FaultPlan{}, true},
		{"loss in range", FaultPlan{Loss: 0.5}, true},
		{"loss negative", FaultPlan{Loss: -0.1}, false},
		{"loss above one", FaultPlan{Loss: 1.1}, false},
		{"loss NaN", FaultPlan{Loss: math.NaN()}, false},
		{"jitter negative", FaultPlan{Jitter: -1}, false},
		{"link rate bad", FaultPlan{LinkLoss: []LinkLoss{{Rate: 2}}}, false},
		{"link rate NaN", FaultPlan{LinkLoss: []LinkLoss{{From: 0, To: 1, Rate: math.NaN()}}}, false},
		{"crash at zero", FaultPlan{Crashes: []Crash{{Node: 0, At: 0}}}, false},
		{"restart before crash", FaultPlan{Crashes: []Crash{{Node: 0, At: 10, RestartAt: 5}}}, false},
		{"crash ok", FaultPlan{Crashes: []Crash{{Node: 0, At: 10, RestartAt: 20}}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("expected a validation error")
			}
		})
	}
}

func TestRecoveryNormalizeAndValidate(t *testing.T) {
	// Disabled passes through untouched and validates vacuously.
	var zero Recovery
	if got := zero.Normalize(); got != zero {
		t.Errorf("disabled Normalize mutated: %+v", got)
	}
	if err := zero.Validate(); err != nil {
		t.Errorf("disabled Validate: %v", err)
	}
	// Enabled zero fields fill with the defaults.
	got := Recovery{Enabled: true}.Normalize()
	if got != DefaultRecovery() {
		t.Errorf("Normalize = %+v, want defaults %+v", got, DefaultRecovery())
	}
	// Explicit fields survive normalization.
	custom := Recovery{Enabled: true, Timeout: 123, MaxRetries: 2, Backoff: 1.5, PendingTTL: 456}
	if got := custom.Normalize(); got != custom {
		t.Errorf("Normalize clobbered explicit fields: %+v", got)
	}
	for _, bad := range []Recovery{
		{Enabled: true, Timeout: -1, MaxRetries: 1, Backoff: 2, PendingTTL: 1},
		{Enabled: true, Timeout: 1, MaxRetries: -1, Backoff: 2, PendingTTL: 1},
		{Enabled: true, Timeout: 1, MaxRetries: 1, Backoff: 0.5, PendingTTL: 1},
		{Enabled: true, Timeout: 1, MaxRetries: 1, Backoff: math.NaN(), PendingTTL: 1},
		{Enabled: true, Timeout: 1, MaxRetries: 1, Backoff: math.Inf(1), PendingTTL: 1},
		{Enabled: true, Timeout: 1, MaxRetries: 1, Backoff: 2, PendingTTL: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", bad)
		}
	}
}

// restartProbe is an echo server that records crash-driven restarts.
type restartProbe struct {
	delayProbe
	restarts   int
	lostTables bool
}

func (p *restartProbe) Restart(loseTables bool) {
	p.restarts++
	p.lostTables = loseTables
}

func TestCrashWindowDropsAndRecoveryRetransmits(t *testing.T) {
	// The server fail-stops during [95, 400): with a 10-tick one-way
	// latency the closed loop turns a request around every ~20 ticks, so
	// several requests die at delivery inside the window (CrashDrops).
	// The recovery client times out and retransmits until the restarted
	// server answers; the closed loop must complete the full trace.
	eng := NewVEngine(LatencyModel{ClientProxy: 10})
	probe := &restartProbe{delayProbe: delayProbe{id: 0, reply: true}}
	if err := eng.Register(probe); err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(ClientConfig{
		Source:  trace.NewSliceSource(make([]ids.ObjectID, 30)),
		Proxies: []ids.NodeID{0},
		Recovery: Recovery{
			Enabled: true, Timeout: 120, MaxRetries: 20, Backoff: 2, PendingTTL: 10_000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(cl); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetFaultPlan(&FaultPlan{
		Crashes: []Crash{{Node: 0, At: 95, RestartAt: 400, LoseTables: true}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !cl.Done() {
		t.Error("client did not complete despite retransmission across the crash window")
	}
	stats := eng.FaultStats()
	if stats.Crashes != 1 || stats.Restarts != 1 {
		t.Errorf("crashes/restarts = %d/%d, want 1/1", stats.Crashes, stats.Restarts)
	}
	if stats.CrashDrops == 0 {
		t.Error("no deliveries were dropped during the crash window")
	}
	if probe.restarts != 1 || !probe.lostTables {
		t.Errorf("probe restarts=%d lostTables=%v, want 1/true", probe.restarts, probe.lostTables)
	}
	if got := cl.Collector().Requests(); got != 30 {
		t.Errorf("completed %d requests, want 30", got)
	}
	if cl.Collector().Retries() == 0 {
		t.Error("recovery never retransmitted")
	}
}

func TestFaultTransferStreamDeterministic(t *testing.T) {
	// The per-transfer draw sequence (loss → link → jitter) is a pure
	// function of the plan seed and the transfer sequence.
	plan := &FaultPlan{
		Seed:     99,
		Loss:     0.3,
		Jitter:   50,
		LinkLoss: []LinkLoss{{From: 1, To: 2, Rate: 0.5}},
	}
	seq := func() ([]int64, []bool) {
		f := newFaultState(plan)
		delays := make([]int64, 0, 200)
		oks := make([]bool, 0, 200)
		for i := 0; i < 200; i++ {
			d, ok := f.transfer(ids.NodeID(i%3), ids.NodeID((i+1)%3), 100)
			delays = append(delays, d)
			oks = append(oks, ok)
		}
		return delays, oks
	}
	d1, ok1 := seq()
	d2, ok2 := seq()
	for i := range d1 {
		if d1[i] != d2[i] || ok1[i] != ok2[i] {
			t.Fatalf("transfer %d diverged: (%d,%v) vs (%d,%v)", i, d1[i], ok1[i], d2[i], ok2[i])
		}
	}
	drops := 0
	for _, ok := range ok1 {
		if !ok {
			drops++
		}
	}
	if drops == 0 || drops == len(ok1) {
		t.Errorf("drops = %d of %d; the stream exercises nothing", drops, len(ok1))
	}
}

func TestNoLossMeansNoStranding(t *testing.T) {
	// Control: with the filter installed but never firing, everything
	// completes — the stranding above is caused by loss alone.
	eng := NewVEngine(LatencyModel{ClientProxy: 1})
	echo := &delayProbe{id: 0, reply: true}
	if err := eng.Register(echo); err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(ClientConfig{
		Source:  trace.NewSliceSource(make([]ids.ObjectID, 10)),
		Proxies: []ids.NodeID{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(cl); err != nil {
		t.Fatal(err)
	}
	eng.SetDropFilter(func(msg.Message) bool { return false })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !cl.Done() || eng.Dropped() != 0 {
		t.Errorf("control run wrong: done=%v dropped=%d", cl.Done(), eng.Dropped())
	}
}
