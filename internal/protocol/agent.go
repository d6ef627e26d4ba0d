// Package protocol is the ADC protocol core: one transport-free agent that
// implements the paper's §IV event handlers — Receive_Request (Fig. 5),
// Forward_Addr (Fig. 6) and Receive_Reply (Fig. 7) — and the hot-object
// replication controller on top of the mapping tables of internal/core.
//
// "The algorithm for ADC is implemented in every running proxy with an equal
// setting without any further modifications or fine-tuning" (§IV): the agent
// owns everything that is protocol — proxy ID, peer set, mapping tables,
// random stream, logical clock, counters, forwarding/learning/replication
// policy — and nothing that is transport. Two drivers feed it events and
// carry out the actions it returns: internal/proxy adapts it to simulator
// messages, internal/httpproxy to HTTP requests and headers. What stays per
// driver is what depends on how requests are identified and carried: the
// pending-pass set for loop detection (request IDs are 64-bit in the
// simulator and opaque strings on the wire, and their retirement is tied to
// each transport's reply path), payload bytes, timers, and tracing stamps.
//
// An Agent is not safe for concurrent use; the simulator engines are
// single-threaded per node and the HTTP proxy calls it under its table lock.
package protocol

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
)

// Config assembles one agent.
type Config struct {
	// ID is the proxy's node ID (0-based).
	ID ids.NodeID
	// Peers lists every proxy in the system including this one; random
	// forwarding selects "over the set of known proxies including
	// itself" (Fig. 6). It may be empty at construction and installed
	// later with SetPeers (the HTTP farm learns addresses only once every
	// proxy is listening).
	Peers []ids.NodeID
	// Tables sizes the three mapping tables.
	Tables core.Config
	// Seed derives the agent's private random stream; the ID is mixed in
	// so two proxies of one system draw different streams.
	Seed int64
	// Replication enables the hot-object replication controller (the
	// zero value keeps the paper-faithful single-location protocol).
	Replication Replication
}

// Advert is a holder's replica-set announcement, piggybacked on a reply as
// it retraces the forwarding path. Replicate marks it authoritative (a
// holder spoke); Replicas is the holder's sorted replica set, possibly empty;
// AvgHint is the holder's moving-average inter-request gap, the adoption seed
// for pushed copies. The zero value is "no advertisement" — all stock ADC
// ever produces.
//
// A Replicas slice returned by the agent aliases mapping-table memory: it is
// valid until the next call into the agent, so drivers copy it into their
// message or clone it before releasing their lock.
type Advert struct {
	Replicate bool
	Replicas  []ids.NodeID
	AvgHint   int64
}

// Learned is what Receive_Reply decided for one passing reply.
type Learned struct {
	// Location is the location learned into the tables: the resolver as
	// received, or this proxy when the data came straight from the origin.
	// It is what the convergence analysis models as this proxy's belief.
	Location ids.NodeID
	// Resolver and Cached are the reply's agreed location and cached flag
	// to propagate downstream (this proxy when it claimed the cached slot).
	Resolver ids.NodeID
	Cached   bool
	// Holds reports that this proxy's caching table holds the object
	// after the update; a driver that moves payload bytes stores the
	// passing body exactly then.
	Holds bool
	// Outcome is the table transition packed by obs.EncodeOutcome.
	Outcome int64
	// Advert is the advertisement to propagate downstream: the upstream
	// one, or this proxy's own when it claimed the cached slot.
	Advert Advert
}

// Agent is one Adaptive Distributed Caching proxy's protocol state.
type Agent struct {
	id        ids.NodeID
	peers     []ids.NodeID
	tables    *core.Tables
	tablesCfg core.Config
	rng       *rand.Rand

	// localTime is "the counter for the received requests [which]
	// represents the local clock of the proxy" (§IV.1).
	localTime int64

	// Stats holds the proxy's counters. The agent maintains the protocol
	// ones; drivers add the few that only they can observe (unexpected
	// replies, expired passes) under the same serialization.
	Stats metrics.ProxyStats

	// replica is the hot-object replication controller (nil = off; every
	// guard is a single branch on the hot path, keeping stock runs
	// byte-identical).
	replica *replicator

	onEvict func(ids.ObjectID)
}

// New builds an agent.
func New(cfg Config) (*Agent, error) {
	if !cfg.ID.IsProxy() {
		return nil, fmt.Errorf("protocol: %v is not a proxy ID", cfg.ID)
	}
	rep := cfg.Replication.Normalize()
	if err := rep.Validate(); err != nil {
		return nil, fmt.Errorf("protocol: proxy %v: %w", cfg.ID, err)
	}
	tables, err := core.NewTables(cfg.Tables)
	if err != nil {
		return nil, fmt.Errorf("protocol: proxy %v: %w", cfg.ID, err)
	}
	a := &Agent{
		id:        cfg.ID,
		tables:    tables,
		tablesCfg: cfg.Tables,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ (int64(cfg.ID)+1)*0x9E3779B9)),
	}
	if rep.Enabled {
		a.replica = newReplicator(rep)
	}
	a.SetPeers(cfg.Peers)
	return a, nil
}

// Tables exposes the mapping tables for dumps, tests and metrics.
func (a *Agent) Tables() *core.Tables { return a.tables }

// LocalTime returns the proxy's logical clock.
func (a *Agent) LocalTime() int64 { return a.localTime }

// Peers returns the random-forwarding peer set; callers must not mutate it.
func (a *Agent) Peers() []ids.NodeID { return a.peers }

// SetPeers installs the random-forwarding peer set (copied; the order is the
// caller's and part of seeded-run determinism) and grows the replication
// controller's per-peer load table to cover it. Infrastructure growth needs
// nothing else: the mapping tables learn a newcomer's objects through
// ordinary backwarding.
func (a *Agent) SetPeers(peers []ids.NodeID) {
	a.peers = slices.Clone(peers)
	if a.replica != nil {
		a.replica.sizeLoad(a.peers)
	}
}

// OnEvict installs a hook called with every object that leaves the caching
// table (demoted by a hotter arrival or shed as a cold replica). A driver
// that stores payload bytes releases them there, which keeps its store
// exactly the caching table's membership.
func (a *Agent) OnEvict(fn func(ids.ObjectID)) { a.onEvict = fn }

// Restart models a fail-stop restart: the replication controller's state is
// volatile (hit counts, load estimates and replica tracking died with the
// process) and a cold restart additionally rebuilds the mapping tables
// empty. Counters, the logical clock and the random stream survive: they
// belong to the experiment, not the process.
func (a *Agent) Restart(loseTables bool) {
	if a.replica != nil {
		a.replica = newReplicator(a.replica.cfg)
		a.replica.sizeLoad(a.peers)
	}
	if loseTables {
		// The config was validated at construction, so this cannot fail.
		if t, err := core.NewTables(a.tablesCfg); err == nil {
			a.tables = t
		}
	}
}

// Arrive is the paper's Receive_Request() (Fig. 5) up to the forwarding
// decision: tick the logical clock and, on a local hit, update the entry to
// point at this proxy so backwarding can start immediately. requester is the
// proxy that forwarded the request here (anything else for a client); a hot
// holder pushes a replica toward it. On a hit, outcome is the packed table
// transition and adv the advertisement the reply carries; on a miss the
// driver checks its pending set and calls Route.
func (a *Agent) Arrive(obj ids.ObjectID, requester ids.NodeID) (hit bool, outcome int64, adv Advert) {
	a.localTime++
	a.Stats.Requests++
	if a.replica != nil && a.localTime%a.replica.cfg.Window == 0 {
		a.rollWindow()
	}
	if !a.tables.IsCached(obj) {
		return false, 0, Advert{}
	}
	a.Stats.LocalHits++
	prevLoc := ids.None
	if a.replica != nil {
		a.noteHit(obj)
		prevLoc, _ = a.tables.ForwardLocation(obj)
	}
	out := a.tables.Update(obj, a.id, a.localTime)
	outcome = encodeOutcome(out)
	a.recordOutcome(out)
	if a.replica != nil {
		adv = a.maybePush(obj, prevLoc, requester)
	}
	return true, outcome, adv
}

// Route decides where a missed request goes next and why (an obs.Reason*
// code). looped reports that the request ID was already pending here — a
// loop (§III.1) — and atMax that the forwarding bound is reached; both send
// the unresolved query to the origin server. Otherwise Forward_Addr (Fig. 6)
// picks a peer.
//
// routable is the driver's reachability belief. nil means every peer is
// routable and the random fallback makes exactly one draw from the agent's
// stream. With a predicate, holders it rejects are skipped; when that leaves
// none, the stale mapping is invalidated so later requests relearn, and the
// forward fails over — to the origin at the entry proxy (the one place where
// giving up on peers cannot lengthen a chain), to a random routable peer
// mid-chain.
func (a *Agent) Route(obj ids.ObjectID, looped, atMax, entry bool, routable func(ids.NodeID) bool) (to ids.NodeID, reason int64) {
	if looped || atMax {
		reason = obs.ReasonMaxHops
		if looped {
			a.Stats.LoopsDetected++
			reason = obs.ReasonLoop
		}
		a.Stats.ForwardOrigin++
		return ids.Origin, reason
	}
	return a.forwardAddr(obj, entry, routable)
}

// forwardAddr is the paper's Forward_Addr() (Fig. 6) over location sets: the
// candidate holders are the entry's learned location plus its replica set
// (always empty in stock ADC), minus this proxy. No entry means a random peer
// (including ourselves). An entry with no other holder is a THIS entry whose
// object is not cached here, which means this proxy is responsible and the
// query goes to the origin server (§III.3.2). Among ≥2 candidates the proxy
// picks by power-of-two-choices on its local per-peer load estimates (two
// uniform draws, lower load wins, ties break to the lower proxy ID so
// fixed-seed runs stay deterministic).
func (a *Agent) forwardAddr(obj ids.ObjectID, entry bool, routable func(ids.NodeID) bool) (ids.NodeID, int64) {
	loc, replicas, ok := a.tables.ForwardSet(obj)
	if !ok {
		return a.forwardRandom(routable)
	}
	var buf [9]ids.NodeID // MaxReplicas is small; 9 covers loc + 8 replicas
	cand := buf[:0]
	skippedDown := false
	if loc.IsProxy() && loc != a.id {
		if routable == nil || routable(loc) {
			cand = append(cand, loc)
		} else {
			skippedDown = true
		}
	}
	for _, n := range replicas {
		if n == a.id || n == loc || len(cand) == len(buf) {
			continue
		}
		if routable == nil || routable(n) {
			cand = append(cand, n)
		} else {
			skippedDown = true
		}
	}
	if len(cand) == 0 {
		if !skippedDown {
			a.Stats.ForwardOrigin++
			return ids.Origin, obs.ReasonSelfOrigin
		}
		// Every known holder is down: demote the stale entry so later
		// requests relearn instead of re-resolving dead holders.
		a.invalidate(obj)
		if entry {
			a.Stats.ForwardOrigin++
			return ids.Origin, obs.ReasonFailover
		}
		return a.forwardRandom(routable)
	}
	to := cand[0]
	if len(cand) > 1 {
		i := a.rng.Intn(len(cand))
		j := a.rng.Intn(len(cand) - 1)
		if j >= i {
			j++
		}
		to = cand[i]
		b := cand[j]
		lt, lb := a.replica.loadOf(to), a.replica.loadOf(b)
		if lb < lt || (lb == lt && b < to) {
			to = b
		}
	}
	a.Stats.ForwardLearned++
	a.replica.addLoad(to)
	return to, obs.ReasonLearned
}

// forwardRandom draws a random peer among the routable ones. When none is
// (every peer down, or no peer set installed yet) the origin is the only
// resolver left.
func (a *Agent) forwardRandom(routable func(ids.NodeID) bool) (ids.NodeID, int64) {
	peers := a.peers
	if routable != nil {
		peers = make([]ids.NodeID, 0, len(a.peers))
		for _, n := range a.peers {
			if routable(n) {
				peers = append(peers, n)
			}
		}
	}
	if len(peers) == 0 {
		a.Stats.ForwardOrigin++
		return ids.Origin, obs.ReasonFailover
	}
	to := peers[a.rng.Intn(len(peers))]
	a.Stats.ForwardRandom++
	a.replica.addLoad(to)
	return to, obs.ReasonRandom
}

// Learn is the paper's Receive_Reply() (Fig. 7) for a reply about obj
// passing through this proxy. resolver and cached are the reply's agreed
// location and cached flag as received, requester the next proxy on the
// backwarding path (anything else for a client), adv the upstream
// advertisement.
func (a *Agent) Learn(obj ids.ObjectID, resolver ids.NodeID, cached bool, requester ids.NodeID, adv Advert) Learned {
	a.Stats.RepliesSeen++

	// Data straight from the origin server: the first proxy on the
	// backwarding path claims the resolver slot.
	if resolver == ids.None {
		resolver = a.id
	}

	// Learn the agreed location; this may promote the entry through the
	// tables and into the cache (the object's data is passing by right
	// now, so caching is possible exactly here).
	out := a.tables.Update(obj, resolver, a.localTime)
	l := Learned{
		Location: resolver,
		Resolver: resolver,
		Cached:   cached,
		Holds:    out.To == core.KindCaching,
		Outcome:  encodeOutcome(out),
		Advert:   adv,
	}
	a.recordOutcome(out)
	if a.replica != nil && a.learnReplicas(obj, resolver, adv) {
		l.Holds = true
	}

	// "This focus on only one caching location is necessary to allow
	// the system to agree faster on one location" (§IV.2): the first
	// cache-holding proxy on the path claims resolver + cached, and with
	// replication on its view of the replica set overrides the upstream
	// advertisement.
	if !cached && l.Holds {
		l.Resolver = a.id
		l.Cached = true
		if a.replica != nil {
			l.Advert = a.maybePush(obj, ids.None, requester)
		}
	}
	return l
}

// Distrust is the demotion half of stale-location handling: a forward that
// trusted the learned location loc went unanswered, so when the tables still
// name loc for obj the mapping is dropped, forwarding falls back to random
// selection and backwarding can re-converge on a live resolver. It reports
// whether an entry was removed.
func (a *Agent) Distrust(obj ids.ObjectID, loc ids.NodeID) bool {
	if !loc.IsProxy() || loc == a.id {
		return false
	}
	if cur, ok := a.tables.ForwardLocation(obj); !ok || cur != loc {
		return false
	}
	return a.invalidate(obj)
}

func (a *Agent) invalidate(obj ids.ObjectID) bool {
	if !a.tables.Invalidate(obj) {
		return false
	}
	a.Stats.StaleInvalidated++
	return true
}

// encodeOutcome packs a table-update outcome into a trace-event Arg.
func encodeOutcome(out core.Outcome) int64 {
	return obs.EncodeOutcome(int(out.From), int(out.To),
		out.CacheEvicted != nil, out.MultipleEvicted != nil, out.Dropped != nil)
}

// recordOutcome applies a table-update outcome's side effects: the cache
// counters, the eviction hook, and entry recycling.
func (a *Agent) recordOutcome(out core.Outcome) {
	if out.To == core.KindCaching && out.From != core.KindCaching {
		a.Stats.CacheInsertions++
	}
	if out.CacheEvicted != nil {
		a.Stats.CacheEvictions++
		if a.onEvict != nil {
			a.onEvict(out.CacheEvicted.Object)
		}
	}
	// Last reader of the outcome: entries the tables forgot go back to
	// the arena.
	a.tables.Recycle(out)
}
