package protocol

import (
	"fmt"
	"slices"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
)

// Policy is a proxy's placement policy — where a missed request looks next
// and who keeps the copy — behind the events Agent defines: Arrive on every
// request, Route on a miss, Learn on every passing reply, Distrust when an
// unanswered forward expires, Restart on a fail-stop restart (loseTables
// selects a cold one). *Agent is ADC's policy; internal/lru's Policy is
// that of the hashing and hierarchy baselines and of the coordinator's
// workers; RoundRobin is the coordinator's dispatcher.
//
// What a driver does with a decision is read from what the events return,
// never from the policy's type. One value of Route's reason changes the
// reply path: obs.ReasonHashed hands the request over for good — the
// forwarder neither joins the backwarding path nor waits for the reply, so
// the assignee answers the client directly (CARP, §V.1.1).
type Policy interface {
	Arrive(obj ids.ObjectID, requester ids.NodeID) (hit bool, outcome int64, adv Advert)
	Route(obj ids.ObjectID, looped, atMax, entry bool, routable func(ids.NodeID) bool) (to ids.NodeID, reason int64)
	Learn(obj ids.ObjectID, resolver ids.NodeID, cached bool, requester ids.NodeID, adv Advert) Learned
	Distrust(obj ids.ObjectID, loc ids.NodeID) bool
	Restart(loseTables bool)
	// Occupancy reports how many entries the policy holds and how many of
	// them are cached objects.
	Occupancy() (held, cached int)
	// Counters returns the policy's counters, valid for its lifetime; a
	// driver adds the few only it observes (unexpected replies, expired
	// passes).
	Counters() *metrics.ProxyStats
}

var (
	_ Policy = (*Agent)(nil)
	_ Policy = (*RoundRobin)(nil)
)

// Occupancy implements Policy: mapping-table entries and the caching
// table's share of them.
func (a *Agent) Occupancy() (held, cached int) { return a.tables.Len(), a.tables.Caching().Len() }

// Counters implements Policy.
func (a *Agent) Counters() *metrics.ProxyStats { return &a.Stats }

// RoundRobin is the authors' first-generation central coordinator (§II.1,
// ref [26]) as a policy: a dispatcher that caches nothing and assigns every
// request to the next worker in turn, "without considering previously
// stored objects". Every request and reply passes it — "the clear
// bottleneck situation for the overall system" that motivated ADC. The
// original picked workers by reinforcement learning over response times;
// over homogeneous simulated workers that degenerates to an even spread,
// so round-robin keeps what the comparison is about: one chokepoint and
// content-blind placement.
type RoundRobin struct {
	workers []ids.NodeID
	next    int
	stats   metrics.ProxyStats
}

// NewRoundRobin builds the dispatcher over a non-empty set of proxy workers.
func NewRoundRobin(workers []ids.NodeID) (*RoundRobin, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("protocol: round-robin dispatcher needs at least one worker")
	}
	for _, w := range workers {
		if !w.IsProxy() {
			return nil, fmt.Errorf("protocol: round-robin worker %v is not a proxy ID", w)
		}
	}
	return &RoundRobin{workers: slices.Clone(workers)}, nil
}

// Arrive implements Policy: the dispatcher never hits.
func (r *RoundRobin) Arrive(ids.ObjectID, ids.NodeID) (bool, int64, Advert) {
	r.stats.Requests++
	return false, 0, Advert{}
}

// Route implements Policy: the next worker, whatever the object.
func (r *RoundRobin) Route(ids.ObjectID, bool, bool, bool, func(ids.NodeID) bool) (ids.NodeID, int64) {
	to := r.workers[r.next]
	r.next = (r.next + 1) % len(r.workers)
	r.stats.ForwardRandom++
	return to, obs.ReasonRandom
}

// Learn implements Policy: the reply passes back through unchanged.
func (r *RoundRobin) Learn(_ ids.ObjectID, resolver ids.NodeID, cached bool, _ ids.NodeID, adv Advert) Learned {
	r.stats.RepliesSeen++
	return Learned{Location: ids.None, Resolver: resolver, Cached: cached, Advert: adv}
}

// Distrust implements Policy: there is no mapping to drop.
func (r *RoundRobin) Distrust(ids.ObjectID, ids.NodeID) bool { return false }

// Restart implements Policy: the rotation position is the dispatcher's only
// state, and it dies with the process, so the next request goes to the
// first worker. Nothing is cached, so a warm restart loses the same.
func (r *RoundRobin) Restart(bool) { r.next = 0 }

// Occupancy implements Policy.
func (r *RoundRobin) Occupancy() (held, cached int) { return 0, 0 }

// Counters implements Policy.
func (r *RoundRobin) Counters() *metrics.ProxyStats { return &r.stats }
