package cluster

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/protocol"
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
// a closed-loop run), so it is available under both runtimes — sequential
// and virtual-time — with a single closed-loop client.

// validateChurn checks the churn-specific configuration constraints.
func (c Config) validateChurn() error {
	if len(c.JoinProxyAt) == 0 {
		return nil
	}
	if c.Algorithm != ADC {
		return fmt.Errorf("cluster: proxy churn requires the ADC algorithm (hashing needs a global remap)")
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
	id := ids.NodeID(len(c.proxies))
	peerIDs := make([]ids.NodeID, 0, len(c.proxies)+1)
	for _, p := range c.proxies {
		peerIDs = append(peerIDs, p.ID())
	}
	peerIDs = append(peerIDs, id)

	a, err := c.cfg.agent(id, peerIDs)
	if err != nil {
		return fmt.Errorf("cluster: join proxy %v: %w", id, err)
	}
	p, err := proxy.New(proxy.Config{ID: id, Policy: a})
	if err != nil {
		return fmt.Errorf("cluster: join proxy %v: %w", id, err)
	}
	if err := register(p); err != nil {
		return fmt.Errorf("cluster: join proxy %v: %w", id, err)
	}
	if c.cfg.Tracer != nil {
		p.SetTracer(c.cfg.Tracer)
	}
	// Churn is ADC-only (validateChurn), so every policy is an agent.
	for _, q := range c.proxies {
		q.Policy().(*protocol.Agent).SetPeers(peerIDs)
	}
	c.proxies = append(c.proxies, p)
	c.nodes = append(c.nodes, p)
	for _, cl := range c.clients {
		cl.AddProxy(id)
	}
	return nil
}
