package cluster

import (
	"fmt"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/sim"
)

// Fail-stop churn: the destructive counterpart of churn.go's proxy joins.
// Crashes and restarts are scheduled at virtual times and merge into the
// engine's fault plan, so they compose with message loss and jitter from
// Config.Faults under one deterministic random stream.

// ProxyCrash schedules a fail-stop failure of one proxy at a virtual time.
type ProxyCrash struct {
	// Proxy is the proxy index in [0, NumProxies).
	Proxy int
	// At is the virtual crash time (must be positive).
	At int64
	// LoseTables selects a cold restart: the proxy rebuilds its mapping
	// tables empty instead of keeping them warm. Volatile request state
	// (pending passes, timers) is lost either way.
	LoseTables bool
}

// ProxyRestart brings a crashed proxy back at a virtual time. Each restart
// must pair with an earlier ProxyCrash of the same proxy.
type ProxyRestart struct {
	// Proxy is the proxy index in [0, NumProxies).
	Proxy int
	// At is the virtual restart time (must follow the crash).
	At int64
}

// faultsActive reports whether any failure injection is configured — used
// to decide whether an unfinished client trace is a measured outcome or an
// execution error.
func (c Config) faultsActive() bool {
	return c.Faults != nil || len(c.CrashProxyAt) > 0
}

// validateFaults checks the fault/recovery configuration constraints.
func (c Config) validateFaults() error {
	if !c.faultsActive() && len(c.RestartProxyAt) == 0 && !c.Recovery.Enabled {
		return nil
	}
	if len(c.RestartProxyAt) > 0 && len(c.CrashProxyAt) == 0 {
		return fmt.Errorf("cluster: RestartProxyAt without any CrashProxyAt")
	}
	if c.Runtime != RuntimeVirtualTime {
		return fmt.Errorf("cluster: fault injection and recovery require the virtual-time runtime")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
		for _, cr := range c.Faults.Crashes {
			if int(cr.Node) < 0 || int(cr.Node) >= c.NumProxies {
				return fmt.Errorf("cluster: crash node %v outside proxy range [0, %d)", cr.Node, c.NumProxies)
			}
		}
	}
	for _, cr := range c.CrashProxyAt {
		if cr.Proxy < 0 || cr.Proxy >= c.NumProxies {
			return fmt.Errorf("cluster: CrashProxyAt proxy %d outside [0, %d)", cr.Proxy, c.NumProxies)
		}
		if cr.At <= 0 {
			return fmt.Errorf("cluster: CrashProxyAt time %d must be positive", cr.At)
		}
	}
	// Every restart must match an unconsumed earlier crash of its proxy.
	used := make([]bool, len(c.CrashProxyAt))
	for _, rs := range c.RestartProxyAt {
		if rs.Proxy < 0 || rs.Proxy >= c.NumProxies {
			return fmt.Errorf("cluster: RestartProxyAt proxy %d outside [0, %d)", rs.Proxy, c.NumProxies)
		}
		found := false
		for i, cr := range c.CrashProxyAt {
			if !used[i] && cr.Proxy == rs.Proxy && cr.At < rs.At {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("cluster: RestartProxyAt proxy %d at %d has no matching earlier crash", rs.Proxy, rs.At)
		}
	}
	return c.Recovery.Normalize().Validate()
}

// faultPlan composes the effective engine fault plan from Config.Faults
// and the CrashProxyAt/RestartProxyAt convenience spelling. It returns nil
// when no failures are configured, which keeps the engine's default path
// byte-identical to a fault-free build.
func (c Config) faultPlan() *sim.FaultPlan {
	if !c.faultsActive() {
		return nil
	}
	var plan sim.FaultPlan
	if c.Faults != nil {
		plan = *c.Faults
		plan.Crashes = append([]sim.Crash(nil), c.Faults.Crashes...)
	} else {
		plan.Seed = c.Seed
	}
	used := make([]bool, len(c.RestartProxyAt))
	for _, cr := range c.CrashProxyAt {
		crash := sim.Crash{
			Node:       ids.NodeID(cr.Proxy),
			At:         cr.At,
			LoseTables: cr.LoseTables,
		}
		// Pair with the earliest unconsumed restart of the same proxy;
		// Validate guaranteed each restart matches some crash.
		for i, rs := range c.RestartProxyAt {
			if !used[i] && rs.Proxy == cr.Proxy && rs.At > cr.At {
				crash.RestartAt = rs.At
				used[i] = true
				break
			}
		}
		plan.Crashes = append(plan.Crashes, crash)
	}
	return &plan
}
