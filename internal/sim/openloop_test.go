package sim

import (
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/trace"
)

// ledgerClient checks an open-loop client's in-flight count after every
// message it handles: injected − completed − abandoned.
type ledgerClient struct {
	*Client
	t      *testing.T
	checks int
}

func (l *ledgerClient) Handle(ctx Context, m msg.Message) {
	l.Client.Handle(ctx, m)
	col := l.Collector()
	if want := int(l.Injected() - col.Requests() - col.Summary().Abandoned); l.inFlight != want {
		l.t.Fatalf("after %T #%d: in flight %d, injected %d − completed %d − abandoned %d = %d",
			m, l.checks, l.inFlight, l.Injected(), col.Requests(), col.Summary().Abandoned, want)
	}
	l.checks++
}

// TestOpenLoopOutstandingLedger: under loss and jitter, with recovery off
// (lost chains stay in flight) and on (timeouts, retransmissions, stale
// replies and abandonments), the in-flight count agrees with the collector
// after every delivery.
func TestOpenLoopOutstandingLedger(t *testing.T) {
	for _, recovery := range []bool{false, true} {
		eng := NewVEngine(LatencyModel{ClientProxy: 10})
		if err := eng.SetFaultPlan(&FaultPlan{Seed: 7, Loss: 0.1, Jitter: 40}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Register(&delayProbe{id: 0, reply: true}); err != nil {
			t.Fatal(err)
		}
		col := metrics.NewCollector(metrics.WithSampleEvery(0))
		cl, err := NewClient(ClientConfig{
			Source:        trace.NewSliceSource(make([]ids.ObjectID, 300)),
			Proxies:       []ids.NodeID{0},
			Collector:     col,
			IntervalTicks: 5,
			Recovery:      Recovery{Enabled: recovery, Timeout: 50, MaxRetries: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		l := &ledgerClient{Client: cl, t: t}
		if err := eng.Register(l); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if l.checks < 300 || col.Requests() == 0 {
			t.Fatalf("recovery=%v: %d checks, %d completions", recovery, l.checks, col.Requests())
		}
		if s := col.Summary(); recovery && (s.Retries == 0 || s.Abandoned == 0 || s.StaleReplies == 0) {
			t.Errorf("recovery=true: retries %d, abandoned %d, stale replies %d; want each above 0",
				s.Retries, s.Abandoned, s.StaleReplies)
		}
		if !recovery && cl.inFlight == 0 {
			t.Error("recovery=false: no request was stranded; the run exercises no loss")
		}
	}
}

// TestOpenLoopRetransmissionMeasuredFromFirstSend: two requests, injected
// at 0 and 1000. The second one's first attempt is lost, its timeout fires
// at 1100 and the retransmission's reply is back at 1120. Its response time
// is 120 — from the first attempt's SentAt — not the retransmission's 20
// (nor 1120, from a SentAt the retransmission failed to carry).
func TestOpenLoopRetransmissionMeasuredFromFirstSend(t *testing.T) {
	eng := NewVEngine(LatencyModel{ClientProxy: 10})
	sends := 0
	eng.SetDropFilter(func(msg.Message) bool {
		sends++
		return sends == 3 // request 1, its reply, then request 2
	})
	if err := eng.Register(&delayProbe{id: 0, reply: true}); err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector(metrics.WithSampleEvery(0))
	cl, err := NewClient(ClientConfig{
		Source:        trace.NewSliceSource([]ids.ObjectID{7, 8}),
		Proxies:       []ids.NodeID{0},
		Collector:     col,
		IntervalTicks: 1000,
		Recovery:      Recovery{Enabled: true, Timeout: 100, MaxRetries: 1},
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
	if s := col.Summary(); s.Requests != 2 || s.Timeouts != 1 || s.Retries != 1 || cl.inFlight != 0 {
		t.Fatalf("completed %d, timeouts %d, retries %d, in flight %d; want 2, 1, 1, 0",
			s.Requests, s.Timeouts, s.Retries, cl.inFlight)
	}
	// Two samples with mean 70 and maximum 120 are exactly 20 and 120.
	if s := col.Summary(); s.MeanResponse != 70 || s.MaxResponse != 120 {
		t.Errorf("mean/max response %v/%v, want 70/120 (samples 20 and 120)", s.MeanResponse, s.MaxResponse)
	}
}
