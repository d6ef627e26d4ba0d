package httpproxy

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/sim"
)

// Deterministic chaos harness for the HTTP farm. It plays the simulator's
// own schedule type, sim.FaultPlan, parsed by sim.ParseFaultSpec (one
// grammar, DESIGN.md §9), in wall-clock time at one tick per microsecond
// from the start of the load run:
//
//	kill=P@T             close proxy P's listener (process crash)
//	restart=P@T          rebind P on its original port; tables survive
//	partition=A:B@T[+D]  cut A<->B (fetches and probes), healed after D
//
// Loss, jitter, per-link loss and cold restarts are the simulator's alone;
// CheckChaos refuses them. Unlike the simulator's replay, determinism here
// means the same events fire in the same order at the same nominal offsets,
// not that two runs are byte-identical.

// CheckChaos reports the first clause of plan that a farm of the given size
// cannot play.
func CheckChaos(plan *sim.FaultPlan, proxies int) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	refuse := func(format string, args ...any) error {
		return fmt.Errorf("httpproxy: the farm cannot play "+format+"; the simulator plays it (adcsim -runtime vtime -faults)", args...)
	}
	switch {
	case plan.Loss != 0:
		return refuse("loss=%v", plan.Loss)
	case plan.Jitter != 0:
		return refuse("jitter=%d", plan.Jitter)
	case len(plan.LinkLoss) > 0:
		l := plan.LinkLoss[0]
		return refuse("link=%d>%d:%v", l.From, l.To, l.Rate)
	}
	in := func(n ids.NodeID) bool { return n >= 0 && int(n) < proxies }
	for _, c := range plan.Crashes {
		if c.LoseTables {
			return refuse("restart=%d@%d! (a cold restart)", c.Node, c.RestartAt)
		}
		if !in(c.Node) {
			return fmt.Errorf("httpproxy: kill=%d@%d targets proxy %d, farm has %d", c.Node, c.At, c.Node, proxies)
		}
	}
	for _, p := range plan.Partitions {
		if !in(p.A) || !in(p.B) {
			return fmt.Errorf("httpproxy: partition=%d:%d@%d targets proxy outside farm of %d", p.A, p.B, p.At, proxies)
		}
	}
	return nil
}

// AppliedChaos is one schedule event as the farm played it.
type AppliedChaos struct {
	// Action is kill, restart, partition or heal.
	Action string
	// A is the kill/restart target (B == A), or A and B the partitioned pair.
	A, B int
	// At is when the event fired, measured from start; timer scheduling can
	// land it slightly after its nominal time.
	At time.Duration
	// Err is the event's failure, if any (e.g. a restart that could not
	// rebind its port).
	Err error
}

// PlayChaos plays a plan that CheckChaos accepted against the farm: it sleeps
// to each event's offset from start and applies it, until the plan ends or
// stop closes. It blocks — run it in its own goroutine alongside the load —
// and returns the applied events in order.
func (f *Farm) PlayChaos(plan *sim.FaultPlan, start time.Time, stop <-chan struct{}) []AppliedChaos {
	var events []AppliedChaos // At is the nominal offset until played
	add := func(action string, ticks int64, a, b ids.NodeID) {
		if ticks > 0 {
			// A tick past a Duration's range is centuries away, not negative.
			at := time.Duration(min(ticks, math.MaxInt64/int64(time.Microsecond))) * time.Microsecond
			events = append(events, AppliedChaos{Action: action, A: int(a), B: int(b), At: at})
		}
	}
	for _, c := range plan.Crashes {
		add("kill", c.At, c.Node, c.Node)
		add("restart", c.RestartAt, c.Node, c.Node)
	}
	for _, p := range plan.Partitions {
		add("partition", p.At, p.A, p.B)
		add("heal", p.HealAt, p.A, p.B)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for i := range events {
		ev := &events[i]
		if d := time.Until(start.Add(ev.At)); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return events[:i]
			}
		}
		switch ev.Action {
		case "kill":
			ev.Err = f.Proxies[ev.A].Kill()
		case "restart":
			ev.Err = f.Proxies[ev.A].Restart()
		case "partition":
			f.Partition(ev.A, ev.B)
		case "heal":
			f.Heal(ev.A, ev.B)
		}
		ev.At = time.Since(start)
	}
	return events
}
