package sim

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/msg"
)

// This file is the deterministic fault-injection layer. The paper's
// protocol explicitly assumes lossless transport — "we don't expect the
// loss of messages" (§III.1) — and the drop-filter experiments prove the
// consequence: one lost transfer strands its request chain forever. A
// FaultPlan promotes that ad-hoc filter into a first-class, seeded failure
// model (i.i.d. loss, per-link loss, delay jitter, fail-stop crashes) so
// the violation of §III.1 becomes a measurable experiment instead of a
// footnote. Recovery (timeouts, retransmission, pending-entry TTL) is the
// matching client/proxy extension; both are strictly opt-in, and with no
// plan installed the engine's behavior is byte-identical to before.

// FaultPlan is a deterministic failure schedule for the virtual-time
// engine. All randomness derives from the plan's own seeded stream, so the
// same plan against the same workload produces the identical sequence of
// drops, delays and crashes on every run.
type FaultPlan struct {
	// Seed drives the plan's private random stream (loss draws, jitter).
	Seed int64

	// Loss is the i.i.d. probability in [0, 1] that any network transfer
	// is silently discarded. Timer events are never lost: they model
	// node-local clocks, not the network.
	Loss float64

	// LinkLoss overrides add extra loss on specific directed links,
	// applied after the i.i.d. draw.
	LinkLoss []LinkLoss

	// Jitter adds a uniform random delay in [0, Jitter] virtual ticks to
	// every surviving transfer (0 disables).
	Jitter int64

	// Crashes schedules fail-stop node failures at virtual times.
	Crashes []Crash
}

// LinkLoss is a per-directed-link loss rate.
type LinkLoss struct {
	// From and To identify the directed link (sender → receiver).
	From, To ids.NodeID
	// Rate is the loss probability in [0, 1] for transfers on this link.
	Rate float64
}

// Crash is one scheduled fail-stop failure: the node stops receiving at At
// (every delivery addressed to it is discarded) and, if RestartAt is set,
// comes back at that time. Whether its mapping tables survive the outage
// is per-crash configurable; volatile request state (pending passes,
// timers) is always lost.
type Crash struct {
	// Node is the crashing node.
	Node ids.NodeID
	// At is the virtual crash time (must be positive).
	At int64
	// RestartAt is the virtual restart time (0 = the node stays down).
	RestartAt int64
	// LoseTables selects a cold restart: the node's Restart hook is told
	// to rebuild its tables empty instead of keeping them warm.
	LoseTables bool
}

// Validate reports the first malformed field.
func (p *FaultPlan) Validate() error {
	// The range checks are written so that NaN, which compares false with
	// everything, fails them.
	if !(p.Loss >= 0 && p.Loss <= 1) {
		return fmt.Errorf("sim: fault plan loss rate %v outside [0, 1]", p.Loss)
	}
	if p.Jitter < 0 {
		return fmt.Errorf("sim: fault plan jitter %d must be non-negative", p.Jitter)
	}
	for _, l := range p.LinkLoss {
		if !(l.Rate >= 0 && l.Rate <= 1) {
			return fmt.Errorf("sim: link loss rate %v outside [0, 1]", l.Rate)
		}
	}
	for _, c := range p.Crashes {
		if c.At <= 0 {
			return fmt.Errorf("sim: crash time %d must be positive", c.At)
		}
		if c.RestartAt != 0 && c.RestartAt <= c.At {
			return fmt.Errorf("sim: restart time %d must follow crash time %d", c.RestartAt, c.At)
		}
	}
	return nil
}

// FaultStats counts what a FaultPlan actually did during a run.
type FaultStats struct {
	// LossDrops counts transfers discarded by the i.i.d. loss rate.
	LossDrops uint64
	// LinkDrops counts transfers discarded by a per-link rate.
	LinkDrops uint64
	// CrashDrops counts deliveries discarded because the destination was
	// down (including the down node's own timer messages).
	CrashDrops uint64
	// Crashes and Restarts count applied fail-stop transitions.
	Crashes  uint64
	Restarts uint64
}

// Restartable is implemented by nodes that participate in fail-stop
// crash/restart injection. The engine calls Restart when a crashed node
// comes back: volatile request state must be dropped (in-flight chains
// died with the process), and loseTables selects whether the durable
// mapping tables are rebuilt empty (cold) or kept (warm).
type Restartable interface {
	Restart(loseTables bool)
}

// Recovery configures the opt-in timeout/retransmission protocol — an
// extension beyond the paper's algorithm, which has no provision for loss.
// All durations are virtual ticks; the protocol runs entirely on the
// virtual clock and is deterministic. The zero value is disabled.
type Recovery struct {
	// Enabled turns the protocol on.
	Enabled bool
	// Timeout is the first-attempt client timeout (ticks).
	Timeout int64
	// MaxRetries bounds retransmissions per request; after the last
	// retry times out the request is abandoned (counted, not retried).
	MaxRetries int
	// Backoff multiplies the timeout after every retry (≥ 1).
	Backoff float64
	// PendingTTL expires proxy loop-detection pending entries whose
	// reply never came back, instead of leaking them.
	PendingTTL int64
}

// DefaultRecovery returns the reference recovery parameters, sized against
// DefaultLatencyModel: the timeout clears the longest observed lossless
// response (~211k ticks), and the pending TTL outlives any legitimate
// in-flight chain.
func DefaultRecovery() Recovery {
	return Recovery{
		Enabled:    true,
		Timeout:    400_000, // 400 ms
		MaxRetries: 8,
		Backoff:    2,
		PendingTTL: 1_000_000, // 1 s
	}
}

// Normalize fills zero fields of an enabled Recovery with the defaults; a
// disabled Recovery passes through untouched.
func (r Recovery) Normalize() Recovery {
	if !r.Enabled {
		return r
	}
	d := DefaultRecovery()
	if r.Timeout == 0 {
		r.Timeout = d.Timeout
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = d.MaxRetries
	}
	if r.Backoff == 0 {
		r.Backoff = d.Backoff
	}
	if r.PendingTTL == 0 {
		r.PendingTTL = d.PendingTTL
	}
	return r
}

// Validate reports the first malformed field of an enabled Recovery.
func (r Recovery) Validate() error {
	if !r.Enabled {
		return nil
	}
	if r.Timeout <= 0 {
		return fmt.Errorf("sim: recovery timeout %d must be positive", r.Timeout)
	}
	if r.MaxRetries < 0 {
		return fmt.Errorf("sim: recovery retries %d must be non-negative", r.MaxRetries)
	}
	if !(r.Backoff >= 1) || math.IsInf(r.Backoff, 0) { // also rejects NaN
		return fmt.Errorf("sim: recovery backoff %v must be finite and at least 1", r.Backoff)
	}
	if r.PendingTTL <= 0 {
		return fmt.Errorf("sim: recovery pending TTL %d must be positive", r.PendingTTL)
	}
	return nil
}

// faultCtl is the engine-internal control event that applies a scheduled
// crash or restart. It travels through the event queue of the shard that
// owns the node, so fault transitions are totally ordered against that
// node's deliveries, but it is intercepted at delivery and never reaches a
// node's Handle.
type faultCtl struct {
	node       ids.NodeID
	restart    bool
	loseTables bool
}

// Dest implements msg.Message.
func (c *faultCtl) Dest() ids.NodeID { return c.node }

// linkKey indexes per-link loss rates.
type linkKey struct{ from, to ids.NodeID }

// faultState is the engine's live view of an installed FaultPlan's loss and
// jitter: the one random stream and what it dropped. Fail-stop state is
// keyed by node and lives on the shards.
type faultState struct {
	plan  *FaultPlan
	rng   *rand.Rand
	link  map[linkKey]float64
	stats FaultStats
}

func newFaultState(p *FaultPlan) *faultState {
	f := &faultState{
		plan: p,
		rng:  rand.New(rand.NewSource(p.Seed ^ 0x5FAA17C0DE)),
	}
	if len(p.LinkLoss) > 0 {
		f.link = make(map[linkKey]float64, len(p.LinkLoss))
		for _, l := range p.LinkLoss {
			f.link[linkKey{l.From, l.To}] = l.Rate
		}
	}
	return f
}

// transfer applies loss and jitter to one Send. It returns the (possibly
// jittered) delay and whether the message survives. The draw order per
// transfer is fixed — i.i.d. loss, link loss, jitter — so the random
// stream is a pure function of the message sequence.
func (f *faultState) transfer(from, to ids.NodeID, delay int64) (int64, bool) {
	if f.plan.Loss > 0 && f.rng.Float64() < f.plan.Loss {
		f.stats.LossDrops++
		return 0, false
	}
	if f.link != nil {
		if rate, ok := f.link[linkKey{from, to}]; ok && rate > 0 && f.rng.Float64() < rate {
			f.stats.LinkDrops++
			return 0, false
		}
	}
	if f.plan.Jitter > 0 {
		delay += f.rng.Int63n(f.plan.Jitter + 1)
	}
	return delay, true
}

// msg.Message compliance for the control event.
var _ msg.Message = (*faultCtl)(nil)
