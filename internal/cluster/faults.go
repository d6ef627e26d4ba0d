package cluster

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/sim"
)

// validateFaults checks the fault/recovery configuration constraints. The
// simulator plays every clause of the fault grammar but partitions.
func (c Config) validateFaults() error {
	if c.Faults == nil && !c.Recovery.Enabled {
		return nil
	}
	if c.Runtime != RuntimeVirtualTime {
		return fmt.Errorf("cluster: fault injection and recovery require the virtual-time runtime")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
		proxy := func(n ids.NodeID) bool { return n >= 0 && int(n) < c.NumProxies }
		for _, cr := range c.Faults.Crashes {
			if !proxy(cr.Node) {
				return fmt.Errorf("cluster: crash node %v outside proxy range [0, %d)", cr.Node, c.NumProxies)
			}
		}
		for _, l := range c.Faults.LinkLoss {
			if !proxy(l.From) || !proxy(l.To) {
				return fmt.Errorf("cluster: link %d>%d outside proxy range [0, %d)", l.From, l.To, c.NumProxies)
			}
		}
		if len(c.Faults.Partitions) > 0 {
			p := c.Faults.Partitions[0]
			return fmt.Errorf("cluster: the simulator cannot play partition=%d:%d@%d; the HTTP farm plays it (adcload -faults)", p.A, p.B, p.At)
		}
	}
	return c.Recovery.Normalize().Validate()
}

// faultPlan returns Config.Faults with a zero Seed drawn from the run's
// Seed. nil (no failures configured) keeps the engine's default path
// byte-identical to a fault-free build.
func (c Config) faultPlan() *sim.FaultPlan {
	if c.Faults == nil || c.Faults.Seed != 0 {
		return c.Faults
	}
	plan := *c.Faults
	plan.Seed = c.Seed
	return &plan
}
