package core

import "github.com/adc-sim/adc/internal/ids"

// Hot-object replication support: location sets on mapping entries, forced
// cache adoption for pushed replicas, and the demotion that drops a cold
// replica back toward stock ADC's single-location convergence.
//
// Everything here is invoked only when the replication controller
// (internal/protocol) is enabled; with it off no entry ever grows a replica
// set and every code path below is dead, keeping the stock protocol
// byte-identical.

// ContainsNode reports whether the sorted set holds n.
func ContainsNode(set []ids.NodeID, n ids.NodeID) bool {
	for _, v := range set {
		if v == n {
			return true
		}
		if v > n {
			return false
		}
	}
	return false
}

// replicasValid reports whether e's replica set is what Entry.Replicas
// promises: proxies only, ascending without repeats.
func replicasValid(e *Entry) bool {
	set := e.Replicas()
	for i, n := range set {
		if !n.IsProxy() || (i > 0 && set[i-1] >= n) {
			return false
		}
	}
	return true
}

// InsertNode adds n to the sorted set if absent, returning the (possibly
// extended) set. The sets are tiny (bounded by the controller's MaxReplicas),
// so linear insertion is both simplest and fastest.
func InsertNode(set []ids.NodeID, n ids.NodeID) []ids.NodeID {
	i := 0
	for i < len(set) && set[i] < n {
		i++
	}
	if i < len(set) && set[i] == n {
		return set
	}
	set = append(set, 0)
	copy(set[i+1:], set[i:])
	set[i] = n
	return set
}

// ForwardSet resolves obj's full location set: the primary location plus any
// replica holders. ok is false when no table has an entry (fall back to
// random peer selection, as with ForwardLocation). The returned slice is the
// entry's own set; callers must not mutate it.
func (t *Tables) ForwardSet(obj ids.ObjectID) (loc ids.NodeID, replicas []ids.NodeID, ok bool) {
	e, kind := t.locate(obj)
	if kind == KindNone {
		return ids.None, nil, false
	}
	return e.Location, e.Replicas(), true
}

// AvgOf returns obj's current moving-average inter-request gap, or false
// when the object has no entry. The replication controller advertises it as
// Reply.AvgHint so adopting proxies seed their forced entries with the
// holder's measured popularity.
func (t *Tables) AvgOf(obj ids.ObjectID) (int64, bool) {
	e, kind := t.locate(obj)
	if kind == KindNone {
		return 0, false
	}
	return e.Avg, true
}

// SetReplicas replaces obj's replica set with the given nodes, dropping
// exclude (the owning proxy itself: a proxy never lists itself as a remote
// replica) and the entry's current Location, and truncating to max entries.
// The input must be sorted ascending; advertised sets always are. It reports
// whether an entry existed to update.
func (t *Tables) SetReplicas(obj ids.ObjectID, nodes []ids.NodeID, exclude ids.NodeID, max int) bool {
	e, kind := t.locate(obj)
	if kind == KindNone {
		return false
	}
	keep := e.Replicas()[:0]
	for _, n := range nodes {
		if n == exclude || n == e.Location || !n.IsProxy() {
			continue
		}
		if len(keep) > 0 && keep[len(keep)-1] == n {
			continue
		}
		keep = append(keep, n)
		if len(keep) == max {
			break
		}
	}
	// In-place filtering is safe even when nodes aliases e.Replicas(): each
	// write lands at an index ≤ the one being read.
	e.setReplicas(keep)
	return true
}

// AddReplica records node as an additional holder of obj, bounded by max.
// It reports whether the set changed.
func (t *Tables) AddReplica(obj ids.ObjectID, node ids.NodeID, max int) bool {
	e, kind := t.locate(obj)
	if kind == KindNone || node == e.Location || !node.IsProxy() {
		return false
	}
	set := e.Replicas()
	if len(set) >= max || ContainsNode(set, node) {
		return false
	}
	e.setReplicas(InsertNode(set, node))
	return true
}

// ClearReplicas forgets obj's replica set (the anchor holder's half of
// reconvergence: stop advertising, let stale remote beliefs wash out).
func (t *Tables) ClearReplicas(obj ids.ObjectID) {
	if e, kind := t.locate(obj); kind != KindNone {
		e.replicas = nil
	}
}

// ForceCache promotes obj into the caching table regardless of the admission
// rule — the adoption half of a replica push, where the object's payload is
// passing by on a backwarding reply and the controller has decided this proxy
// should hold a copy. Unknown objects get a fresh entry. adopted is false
// when the cache bounced the entry (every resident is hotter); the entry then
// returns to where it came from and the push is abandoned.
//
// avgHint, when positive, is the pushing holder's measured moving average
// for the object (Reply.AvgHint). A fresh or barely-seen local entry adopts
// it; an established local history only improves toward it. Without the
// hint a pushed replica starts cold (AVG 0 counts as unseeded, and the
// first local CalcAverage would seed it with a huge gap), loses every
// admission comparison that follows, and is evicted before it can serve a
// hit — the push mechanism then thrashes instead of spreading load.
//
// The caching table's own eviction still applies: forcing a replica in may
// demote the cache's worst entry onto the single-table top (Outcome.
// CacheEvicted / Dropped, exactly as the LRU ablation handles it).
func (t *Tables) ForceCache(obj ids.ObjectID, loc ids.NodeID, now, avgHint int64) (out Outcome, adopted bool) {
	e, kind := t.locate(obj)
	if kind == KindNone {
		e = t.alloc(obj, loc, now)
		if avgHint > 0 {
			// Seed as if the holder's history happened here: two
			// sightings avgHint apart.
			e.Avg = avgHint
			e.Hits = 2
		}
	} else {
		// A known entry leaves its table first, so a cached one is
		// refreshed in place (Fig. 8 Part 1): its table has room.
		t.tables[kind].RemoveEntry(e)
		e.CalcAverage(now)
		e.Location = loc
		if avgHint > 0 && (e.Hits <= 2 || e.Avg == 0 || avgHint < e.Avg) {
			e.Avg = avgHint
		}
	}
	out = Outcome{From: kind, To: KindCaching}
	e.kind = KindCaching
	evicted := t.tables[KindCaching].Insert(e)
	if evicted == nil {
		return out, true
	}
	if evicted == e {
		// The cache is full of strictly hotter entries and bounced the
		// newcomer itself; undo the adoption. The source table has room:
		// the entry just left it (or, for a fresh entry, the single-table
		// top absorbs it like any first sighting).
		if kind == KindNone {
			out.To = KindSingle
			t.pushTop(&out, e)
		} else {
			out.To = kind
			t.tables[kind].Insert(e)
		}
		e.kind = out.To
		return out, false
	}
	// A resident was demoted to make room; it keeps its forwarding
	// knowledge on the single-table top, as in the LRU ablation.
	out.CacheEvicted = evicted
	evicted.kind = KindSingle
	t.pushTop(&out, evicted)
	return out, true
}

// DropCached demotes obj out of the caching table onto the single-table top —
// a replica holder shedding a cold copy. The entry's location is rewritten to
// fallback (the anchor holder), so this proxy keeps routing knowledge for the
// object instead of falling back to random forwarding, and its replica set is
// cleared. It reports false when obj is not cached.
func (t *Tables) DropCached(obj ids.ObjectID, fallback ids.NodeID) (out Outcome, dropped bool) {
	e, kind := t.locate(obj)
	if kind != KindCaching {
		return Outcome{}, false
	}
	t.tables[KindCaching].RemoveEntry(e)
	if fallback.IsProxy() {
		e.Location = fallback
	}
	e.replicas = nil
	out = Outcome{From: KindCaching, To: KindSingle, CacheEvicted: e}
	e.kind = KindSingle
	t.pushTop(&out, e)
	return out, true
}
