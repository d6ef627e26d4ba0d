package cluster

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/proxy"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/workload"
)

// Infrastructure churn: the paper lists "changes of the infrastructure"
// among the parameters its testbed supports but never exercises (§V.1).
// This file implements the growth side — proxies joining a live system —
// which is where ADC's self-organization has something to prove: the
// newcomer starts with empty tables and must attract load purely through
// random forwarding and backwarding.
//
// Churn is applied between client requests (the only quiescent points of
// a closed-loop run), so it is available on the deterministic engines —
// sequential and virtual-time, the latter serialized at any shard count —
// with a single closed-loop client.

// validateChurn checks the churn-specific configuration constraints.
func (c Config) validateChurn() error {
	if len(c.JoinProxyAt) == 0 {
		return nil
	}
	if c.Algorithm != ADC {
		return fmt.Errorf("cluster: proxy churn requires the ADC algorithm (hashing needs a global remap)")
	}
	if c.Runtime != RuntimeSequential && c.Runtime != RuntimeVirtualTime {
		return fmt.Errorf("cluster: proxy churn requires the sequential or virtual-time runtime")
	}
	if c.Clients > 1 {
		return fmt.Errorf("cluster: proxy churn requires a single client")
	}
	if c.OpenLoopInterval > 0 {
		return fmt.Errorf("cluster: proxy churn requires a closed-loop client")
	}
	prev := uint64(0)
	for i, at := range c.JoinProxyAt {
		if at == 0 || (i > 0 && at <= prev) {
			return fmt.Errorf("cluster: JoinProxyAt must be positive and strictly increasing")
		}
		prev = at
	}
	return nil
}

// churnSource wraps the client's workload source and fires the join
// actions when the stream crosses the configured request indexes. Next is
// called by the client between requests, inside the engine's single
// thread, which makes topology mutation safe.
type churnSource struct {
	inner   workload.Source
	atReqs  []uint64
	next    int
	emitted uint64
	onJoin  func() error
	err     error
}

var _ workload.Source = (*churnSource)(nil)

func (s *churnSource) Total() int { return s.inner.Total() }

func (s *churnSource) Next() (ids.ObjectID, bool) {
	if s.next < len(s.atReqs) && s.emitted >= s.atReqs[s.next] {
		s.next++
		if s.onJoin != nil {
			if err := s.onJoin(); err != nil && s.err == nil {
				s.err = err
			}
		}
	}
	s.emitted++
	return s.inner.Next()
}

// addProxy grows the cluster by one ADC agent: register it with the live
// engine, introduce it to every existing proxy's peer set and to the
// client's entry set. The newcomer knows all peers from birth; everything
// else it learns from traffic.
func (c *Cluster) addProxy(register func(sim.Node) error) error {
	id := ids.NodeID(len(c.adcProxies))
	peerIDs := make([]ids.NodeID, 0, len(c.adcProxies)+1)
	for _, p := range c.adcProxies {
		peerIDs = append(peerIDs, p.ID())
	}
	peerIDs = append(peerIDs, id)

	p, err := proxy.New(proxy.Config{
		ID:          id,
		Peers:       peerIDs,
		Tables:      c.cfg.Tables,
		Seed:        c.cfg.Seed,
		Replication: c.cfg.Replication,
	})
	if err != nil {
		return fmt.Errorf("cluster: join proxy %v: %w", id, err)
	}
	if err := register(p); err != nil {
		return fmt.Errorf("cluster: join proxy %v: %w", id, err)
	}
	if c.cfg.Tracer != nil {
		p.SetTracer(c.cfg.Tracer)
	}
	for _, q := range c.adcProxies {
		q.AddPeer(id)
	}
	c.adcProxies = append(c.adcProxies, p)
	c.nodes = append(c.nodes, p)
	for _, cl := range c.clients {
		if scl, ok := cl.(*sim.Client); ok {
			scl.AddProxy(id)
		}
	}
	return nil
}
