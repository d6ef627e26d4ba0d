package lru

import (
	"fmt"

	"github.com/adc-sim/adc/internal/carp"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/protocol"
)

// Policy is the baselines' placement policy (protocol.Policy): an LRU cache
// that stores every object whose reply passes by, and one upstream rule for
// misses. With an Assigner — CARP's hash (§V.1.1) or a consistent-hashing
// ring — a miss is handed over to the object's assigned proxy, which fetches
// it from the origin, caches it "replacing existing information based on
// the LRU algorithm" and replies "directly to the requesting client,
// bypassing the first proxy". Without one, every miss climbs to a fixed next
// hop: the root for a hierarchy leaf, the origin for the root and for a
// coordinator's workers.
type Policy struct {
	id     ids.NodeID
	assign carp.Assigner
	next   ids.NodeID
	cache  *Cache[ids.ObjectID, struct{}]
	stats  metrics.ProxyStats
}

var _ protocol.Policy = (*Policy)(nil)

// NewPolicy builds proxy id's policy over a cache of size objects. A miss
// goes to assign's choice when assign is non-nil and names another proxy,
// and to next otherwise; next must be the origin or another proxy.
func NewPolicy(id ids.NodeID, size int, assign carp.Assigner, next ids.NodeID) (*Policy, error) {
	switch {
	case !id.IsProxy():
		return nil, fmt.Errorf("lru: %v is not a proxy ID", id)
	case size <= 0:
		return nil, fmt.Errorf("lru: proxy %v: cache size %d must be positive", id, size)
	case next != ids.Origin && (!next.IsProxy() || next == id):
		return nil, fmt.Errorf("lru: proxy %v: next hop %v is neither the origin nor another proxy", id, next)
	}
	return &Policy{id: id, assign: assign, next: next, cache: New[ids.ObjectID, struct{}](size)}, nil
}

// Arrive implements protocol.Policy: a hit refreshes the object's recency.
func (p *Policy) Arrive(obj ids.ObjectID, _ ids.NodeID) (bool, int64, protocol.Advert) {
	p.stats.Requests++
	if _, ok := p.cache.Get(obj); !ok {
		return false, 0, protocol.Advert{}
	}
	p.stats.LocalHits++
	return true, 0, protocol.Advert{}
}

// Route implements protocol.Policy. Loop and hop-bound state is ignored: no
// baseline path visits a proxy twice, and the baselines never applied the
// bound.
func (p *Policy) Route(obj ids.ObjectID, _, _, _ bool, _ func(ids.NodeID) bool) (ids.NodeID, int64) {
	if p.assign != nil {
		if to := p.assign.Assign(obj); to != p.id {
			p.stats.ForwardLearned++
			return to, obs.ReasonHashed
		}
	}
	p.stats.ForwardOrigin++
	return p.next, obs.ReasonSelfOrigin
}

// Learn implements protocol.Policy: the passing object is cached (or its
// recency refreshed), and origin data is claimed — this proxy becomes the
// reply's resolver, as the first holder on the backwarding path. With no
// mapping tables, the outcome is recorded as a none→caching transition.
func (p *Policy) Learn(obj ids.ObjectID, resolver ids.NodeID, cached bool, _ ids.NodeID, adv protocol.Advert) protocol.Learned {
	p.stats.RepliesSeen++
	if !p.cache.Contains(obj) {
		p.stats.CacheInsertions++
	}
	evicted := p.cache.Put(obj, struct{}{})
	if evicted {
		p.stats.CacheEvictions++
	}
	if !cached {
		resolver = p.id
	}
	return protocol.Learned{
		Location: resolver,
		Resolver: resolver,
		Cached:   true,
		Holds:    true,
		Outcome:  obs.EncodeOutcome(0, 1, evicted, false, false),
		Advert:   adv,
	}
}

// Distrust implements protocol.Policy: the upstream rule is fixed, so there
// is no learned location to drop.
func (p *Policy) Distrust(ids.ObjectID, ids.NodeID) bool { return false }

// Restart implements protocol.Policy: a cold restart empties the cache.
func (p *Policy) Restart(loseTables bool) {
	if loseTables {
		p.cache = New[ids.ObjectID, struct{}](p.cache.Cap())
	}
}

// Occupancy implements protocol.Policy: every entry is a cached object.
func (p *Policy) Occupancy() (held, cached int) { return p.cache.Len(), p.cache.Len() }

// Counters implements protocol.Policy.
func (p *Policy) Counters() *metrics.ProxyStats { return &p.stats }
