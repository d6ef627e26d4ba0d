package protocol

import (
	"fmt"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
)

// Replication configures the hot-object replication controller — the
// DynamicCache-style control loop layered on stock ADC. Backwarding
// deliberately converges every object to one location (§IV.2), so under
// Zipf traffic the proxy holding the head object saturates while the rest
// of the farm idles. With replication enabled, a holder that sees an object
// run hot pushes copies to recent requesters (piggybacked on the replies it
// is already sending — no new round trips), backwarding advertises the
// resulting location *set*, forwarding picks among the set by
// power-of-two-choices on locally observed per-peer load, and cold replicas
// are dropped back toward the stock single-location state.
//
// The zero value disables the controller entirely; every hook in the
// request path is then a single false branch, keeping stock runs
// byte-identical to pre-replication builds (guarded by the golden
// determinism tests).
type Replication struct {
	// Enabled turns the controller on.
	Enabled bool

	// HotThreshold is how many local cache hits an object must collect
	// within the current window before the holder starts pushing
	// replicas of it. Default 32.
	HotThreshold int

	// MaxReplicas bounds the number of additional holders beyond the
	// primary location that an entry may advertise. Default 3.
	MaxReplicas int

	// Window is the controller's decay period in proxy-local logical
	// time (received requests): every Window requests the per-object hit
	// counts reset, per-peer load estimates halve, and replica copies
	// that stayed cold are dropped. Default 1024.
	Window int64

	// DropThreshold is the minimum window hit count that keeps a replica
	// copy alive; colder copies are shed at the window roll. Default 1
	// (a replica that served nothing this window is dropped).
	DropThreshold int
}

// Normalize fills zero knobs with defaults (only when Enabled).
func (r Replication) Normalize() Replication {
	if !r.Enabled {
		return r
	}
	if r.HotThreshold == 0 {
		r.HotThreshold = 32
	}
	if r.MaxReplicas == 0 {
		r.MaxReplicas = 3
	}
	if r.Window == 0 {
		r.Window = 1024
	}
	if r.DropThreshold == 0 {
		r.DropThreshold = 1
	}
	return r
}

// Validate reports the first configuration error, if any.
func (r Replication) Validate() error {
	if !r.Enabled {
		return nil
	}
	if r.HotThreshold < 1 {
		return fmt.Errorf("replication: hot threshold must be ≥ 1, got %d", r.HotThreshold)
	}
	if r.MaxReplicas < 1 {
		return fmt.Errorf("replication: max replicas must be ≥ 1, got %d", r.MaxReplicas)
	}
	if r.Window < 1 {
		return fmt.Errorf("replication: window must be ≥ 1, got %d", r.Window)
	}
	if r.DropThreshold < 1 {
		return fmt.Errorf("replication: drop threshold must be ≥ 1, got %d", r.DropThreshold)
	}
	return nil
}

// replicator is the per-proxy controller state. All structures are either
// never iterated (maps) or kept sorted (slices), so the controller is fully
// deterministic at a fixed seed.
type replicator struct {
	cfg Replication

	// hot counts local cache hits per object within the current window.
	// Reset (not decayed) at every roll: a hot object re-earns its pushes
	// each window, which is what lets cold replicas reconverge.
	hot map[ids.ObjectID]int

	// tracked is the sorted set of cached objects with replication
	// involvement here (adopted replica copies and primaries that have
	// pushed or learned a replica set); only these are examined at the
	// window roll. trackedSet mirrors it for O(1) membership; it is
	// never iterated.
	tracked    []ids.ObjectID
	trackedSet map[ids.ObjectID]struct{}

	// held marks objects this proxy holds as a pushed replica (for the
	// ReplicaHits counter); never iterated.
	held map[ids.ObjectID]struct{}

	// load estimates recent outgoing demand per peer proxy (indexed by
	// NodeID), halved each window. It is the "load" in
	// power-of-two-choices: purely local knowledge, no control traffic.
	load []uint64
}

func newReplicator(cfg Replication) *replicator {
	return &replicator{
		cfg:        cfg,
		hot:        make(map[ids.ObjectID]int),
		trackedSet: make(map[ids.ObjectID]struct{}),
		held:       make(map[ids.ObjectID]struct{}),
	}
}

// sizeLoad grows the per-peer load table to cover the given peer set.
func (r *replicator) sizeLoad(peers []ids.NodeID) {
	for _, p := range peers {
		for int(p) >= len(r.load) {
			r.load = append(r.load, 0)
		}
	}
}

func (r *replicator) track(obj ids.ObjectID) {
	if _, ok := r.trackedSet[obj]; ok {
		return
	}
	r.trackedSet[obj] = struct{}{}
	i := 0
	for i < len(r.tracked) && r.tracked[i] < obj {
		i++
	}
	r.tracked = append(r.tracked, 0)
	copy(r.tracked[i+1:], r.tracked[i:])
	r.tracked[i] = obj
}

func (r *replicator) untrack(i int) {
	delete(r.trackedSet, r.tracked[i])
	delete(r.held, r.tracked[i])
	r.tracked = append(r.tracked[:i], r.tracked[i+1:]...)
}

// addLoad and loadOf tolerate a nil controller so Forward_Addr charges and
// reads load without branching on whether replication is on.
func (r *replicator) addLoad(to ids.NodeID) {
	if r != nil && int(to) < len(r.load) {
		r.load[to]++
	}
}

func (r *replicator) loadOf(n ids.NodeID) uint64 {
	if r != nil && int(n) < len(r.load) {
		return r.load[n]
	}
	return 0
}

// noteHit records a local cache hit for the controller: bump the window hit
// count and credit the replica counter when the copy was pushed here.
func (a *Agent) noteHit(obj ids.ObjectID) {
	r := a.replica
	r.hot[obj]++
	if _, held := r.held[obj]; held {
		a.Stats.ReplicaHits++
	}
}

// maybePush decides, when this proxy answers for obj as its holder — on the
// local-hit path, or on the reply path when it claims the cached slot —
// whether to push a replica to target, the next proxy on the backwarding path
// (the one that forwarded the request here, i.e. a recent requester). The
// push rides the reply itself: the object's data is passing through that
// proxy anyway, so adoption costs no extra message. Independently of pushing,
// it returns the holder's advertisement so the path learns the location set.
//
// prevLoc is the entry's Location before the hit-path Update rewrote it to
// this proxy; when it named another holder (this copy was an adopted
// replica and prevLoc the primary), it is folded into the replica set so
// the candidate holder set survives the rewrite.
func (a *Agent) maybePush(obj ids.ObjectID, prevLoc, target ids.NodeID) Advert {
	r := a.replica
	if prevLoc.IsProxy() && prevLoc != a.id {
		if a.tables.AddReplica(obj, prevLoc, r.cfg.MaxReplicas) {
			r.track(obj)
		}
	}
	if r.hot[obj] >= r.cfg.HotThreshold && target.IsProxy() && target != a.id {
		if a.tables.AddReplica(obj, target, r.cfg.MaxReplicas) {
			a.Stats.ReplicaPushes++
			r.track(obj)
		}
	}
	// A holder's view of the set is authoritative: advertise it even when
	// empty, so remote proxies replace stale beliefs (the drop half of
	// reconvergence rides the same piggyback as the push half). The
	// holder's measured average goes along as the adoption seed.
	var adv Advert
	if _, replicas, ok := a.tables.ForwardSet(obj); ok {
		adv.Replicate = true
		adv.Replicas = replicas
		adv.AvgHint, _ = a.tables.AvgOf(obj)
		if len(replicas) > 0 {
			r.track(obj)
		}
	}
	return adv
}

// learnReplicas folds a reply's advertised location set into the local
// entry, and — when this proxy is one of the designated replica targets —
// adopts the passing object into the cache, which it reports. Only replies
// flagged Replicate carry an authoritative set (a holder spoke); those use
// replace semantics, so sets converge as the controller grows and shrinks
// them, and an advertised empty set clears stale beliefs. Replies from
// non-replicating resolutions — a plain origin miss racing the same object —
// leave the learned set alone: wiping it on every such race forces the holder
// to re-push each window and the controller thrashes instead of converging.
func (a *Agent) learnReplicas(obj ids.ObjectID, resolver ids.NodeID, adv Advert) bool {
	if !adv.Replicate {
		return false
	}
	r := a.replica
	if core.ContainsNode(adv.Replicas, a.id) && !a.tables.IsCached(obj) {
		// This proxy was designated a replica holder and the object's
		// data is passing by right now: force it into the cache. The
		// primary stays the resolver; the other designated holders
		// become our replica set.
		out, adopted := a.tables.ForceCache(obj, resolver, a.localTime, adv.AvgHint)
		a.recordOutcome(out)
		if adopted {
			a.tables.SetReplicas(obj, adv.Replicas, a.id, r.cfg.MaxReplicas)
			r.held[obj] = struct{}{}
			r.track(obj)
			return true
		}
	}
	// Non-designated path proxy: learn the advertised set (primary =
	// resolver is already the entry's Location via the Update before).
	a.tables.SetReplicas(obj, adv.Replicas, a.id, r.cfg.MaxReplicas)
	if a.tables.IsCached(obj) && len(adv.Replicas) > 0 {
		r.track(obj)
	}
	return false
}

// rollWindow is the controller's decay step, run every cfg.Window received
// requests: halve per-peer load estimates, reset per-object hit counts, and
// walk the tracked objects shedding replica copies that stayed cold.
//
// The drop rule reconverges toward stock ADC: among the holders an entry
// knows ({self} ∪ {Location} ∪ Replicas), the lowest proxy ID is the
// anchor. A cold non-anchor holder demotes its copy out of the cache
// (keeping a forwarding entry pointed at the anchor, so routing knowledge
// survives); a cold anchor keeps the object but clears its advertisement.
// Holder views can diverge transiently — the worst case is every holder
// dropping and the next miss re-resolving via the origin, which is exactly
// a stock-ADC cold start.
func (a *Agent) rollWindow() {
	r := a.replica
	for i := range r.load {
		r.load[i] >>= 1
	}
	for i := 0; i < len(r.tracked); {
		obj := r.tracked[i]
		if !a.tables.IsCached(obj) {
			// The copy was evicted by normal table pressure; the
			// controller just forgets it.
			a.tables.ClearReplicas(obj)
			r.untrack(i)
			continue
		}
		if r.hot[obj] >= r.cfg.DropThreshold {
			i++
			continue
		}
		loc, replicas, _ := a.tables.ForwardSet(obj)
		anchor := a.id
		if loc.IsProxy() && loc < anchor {
			anchor = loc
		}
		for _, n := range replicas {
			if n < anchor {
				anchor = n
			}
		}
		if anchor == a.id {
			a.tables.ClearReplicas(obj)
			r.untrack(i)
			continue
		}
		out, dropped := a.tables.DropCached(obj, anchor)
		if dropped {
			a.Stats.ReplicaDrops++
			a.recordOutcome(out)
		}
		r.untrack(i)
	}
	clear(r.hot)
}

// Replicating reports whether the replication controller is on, and the
// live sizes of its tracked and held-replica sets.
func (a *Agent) Replicating() (on bool, tracked, held int) {
	if a.replica == nil {
		return false, 0, 0
	}
	return true, len(a.replica.tracked), len(a.replica.held)
}
