package proxy

import (
	"math/rand"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/sim"
)

// collectCtx records everything a proxy sends, without delivering it. Its
// clock stands at 0 and the proxies it drives run without recovery, so no
// timer is ever armed.
type collectCtx struct {
	sent []msg.Message
	fl   msg.Freelist
	t    *testing.T
}

func (c *collectCtx) Send(m msg.Message) {
	sim.CountHop(m)
	c.sent = append(c.sent, m)
}

func (c *collectCtx) Freelist() *msg.Freelist { return &c.fl }

func (c *collectCtx) VNow() int64 { return 0 }

func (c *collectCtx) After(delay int64, m msg.Message) {
	c.t.Errorf("proxy without recovery armed a timer: After(%d, %T)", delay, m)
}

// TestProxySurvivesArbitraryMessageStorm feeds a proxy a fuzz stream of
// structurally odd (but type-correct) messages: replies it never forwarded,
// duplicated request IDs, empty and oversized paths, foreign resolvers.
// The proxy must never panic, never exceed table bounds, and always emit
// exactly one message per received request.
func TestProxySurvivesArbitraryMessageStorm(t *testing.T) {
	peers := []ids.NodeID{0, 1, 2}
	p := newAgentNode(t, protocol.Config{
		ID:    0,
		Peers: peers,
		Tables: core.Config{
			SingleSize: 16, MultipleSize: 8, CachingSize: 4,
		},
		Seed: 1,
	})
	rng := rand.New(rand.NewSource(31))
	ctx := &collectCtx{t: t}
	for i := 0; i < 20000; i++ {
		before := len(ctx.sent)
		if rng.Intn(2) == 0 {
			req := &msg.Request{
				To:      0,
				ID:      ids.NewRequestID(rng.Intn(4), uint64(rng.Intn(50))),
				Object:  ids.ObjectID(rng.Intn(64)),
				Client:  ids.Client(rng.Intn(4)),
				Sender:  ids.NodeID(rng.Intn(3)),
				MaxHops: rng.Intn(4),
			}
			for k := rng.Intn(5); k > 0; k-- {
				req.Path = append(req.Path, ids.NodeID(rng.Intn(3)))
			}
			p.Handle(ctx, req)
			if len(ctx.sent) != before+1 {
				t.Fatalf("request %d produced %d sends, want 1", i, len(ctx.sent)-before)
			}
		} else {
			rep := &msg.Reply{
				To:       0,
				ID:       ids.NewRequestID(rng.Intn(4), uint64(rng.Intn(50))),
				Object:   ids.ObjectID(rng.Intn(64)),
				Client:   ids.Client(rng.Intn(4)),
				Resolver: ids.NodeID(rng.Intn(5) - 1), // includes None
				Cached:   rng.Intn(2) == 0,
			}
			for k := rng.Intn(4); k > 0; k-- {
				rep.Path = append(rep.Path, ids.NodeID(rng.Intn(3)))
			}
			p.Handle(ctx, rep)
			if len(ctx.sent) != before+1 {
				t.Fatalf("reply %d produced %d sends, want 1", i, len(ctx.sent)-before)
			}
		}
		tb := agent(p).Tables()
		if tb.Single().Len() > 16 || tb.Multiple().Len() > 8 || tb.Caching().Len() > 4 {
			t.Fatalf("step %d: table bounds violated (%d/%d/%d)",
				i, tb.Single().Len(), tb.Multiple().Len(), tb.Caching().Len())
		}
	}
	// Every emitted message must address a known destination kind.
	for _, m := range ctx.sent {
		d := m.Dest()
		if !d.IsProxy() && d != ids.Origin && !d.IsClient() {
			t.Fatalf("proxy emitted message to invalid destination %v", d)
		}
	}
}

// TestProxyIgnoresForeignMessageTypes: unknown message kinds must be
// dropped silently, not crash the agent.
func TestProxyIgnoresForeignMessageTypes(t *testing.T) {
	p := newAgentNode(t, protocol.Config{
		ID: 0, Peers: []ids.NodeID{0},
		Tables: core.Config{SingleSize: 4, MultipleSize: 4, CachingSize: 4},
	})
	ctx := &collectCtx{t: t}
	p.Handle(ctx, bogusMessage{})
	if len(ctx.sent) != 0 {
		t.Error("foreign message must be ignored")
	}
}

type bogusMessage struct{}

func (bogusMessage) Dest() ids.NodeID { return 0 }
