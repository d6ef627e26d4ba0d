package ids

import "sort"

// denseLimit bounds how far the dense arrays of a Table grow. Proxy and
// client IDs are assigned contiguously from zero by every wiring layer, so
// in practice all lookups are dense; the limit only guards against a
// hand-crafted huge ID forcing a gigabyte of nil slots. IDs beyond it fall
// back to the sparse map.
const denseLimit = 1 << 20

// Table is a NodeID-keyed lookup optimised for the engine's dispatch hot
// path. The ID space is exploited directly: proxies (0,1,2,…) and clients
// (Client(0), Client(1), …) index flat slices, the origin has a dedicated
// slot, and only out-of-range stragglers pay for a map. Get is a bounds
// check plus an array load — no hashing — which is what makes delivering
// tens of millions of events per second possible.
//
// The zero value is ready to use. Table is not safe for concurrent
// mutation; engines populate it during registration and only read it while
// running.
type Table[T any] struct {
	proxies   []T
	proxySet  []bool
	clients   []T
	clientSet []bool
	origin    T
	originSet bool
	sparse    map[NodeID]T
	n         int
}

// Len returns the number of stored entries.
func (t *Table[T]) Len() int { return t.n }

// Get returns the entry for id, if present.
func (t *Table[T]) Get(id NodeID) (T, bool) {
	if id >= 0 {
		if i := int(id); i < len(t.proxies) {
			return t.proxies[i], t.proxySet[i]
		}
	} else if id <= clientBase {
		if i := int(clientBase - id); i < len(t.clients) {
			return t.clients[i], t.clientSet[i]
		}
	} else if id == Origin {
		return t.origin, t.originSet
	}
	v, ok := t.sparse[id]
	return v, ok
}

// Put stores v under id. It reports false (and stores nothing) when id is
// already present.
func (t *Table[T]) Put(id NodeID, v T) bool {
	switch {
	case id >= 0 && int64(id) < denseLimit:
		i := int(id)
		for i >= len(t.proxies) {
			t.proxies = append(t.proxies, *new(T))
			t.proxySet = append(t.proxySet, false)
		}
		if t.proxySet[i] {
			return false
		}
		t.proxies[i], t.proxySet[i] = v, true
	case id <= clientBase && int64(clientBase-id) < denseLimit:
		i := int(clientBase - id)
		for i >= len(t.clients) {
			t.clients = append(t.clients, *new(T))
			t.clientSet = append(t.clientSet, false)
		}
		if t.clientSet[i] {
			return false
		}
		t.clients[i], t.clientSet[i] = v, true
	case id == Origin:
		if t.originSet {
			return false
		}
		t.origin, t.originSet = v, true
	default:
		if _, dup := t.sparse[id]; dup {
			return false
		}
		if t.sparse == nil {
			t.sparse = make(map[NodeID]T)
		}
		t.sparse[id] = v
	}
	t.n++
	return true
}

// Ascending calls fn for every entry in ascending NodeID order (clients
// from the most negative ID up, then the origin, then proxies from zero).
// The deterministic order is what makes engine start-up reproducible.
func (t *Table[T]) Ascending(fn func(id NodeID, v T)) {
	var sparseIDs []NodeID
	for id := range t.sparse {
		sparseIDs = append(sparseIDs, id)
	}
	sort.Slice(sparseIDs, func(i, j int) bool { return sparseIDs[i] < sparseIDs[j] })
	next := 0
	emitSparseBelow := func(limit NodeID) {
		for next < len(sparseIDs) && sparseIDs[next] < limit {
			fn(sparseIDs[next], t.sparse[sparseIDs[next]])
			next++
		}
	}
	// Clients: Client(i) = clientBase - i, so ascending NodeID means
	// descending index.
	for i := len(t.clients) - 1; i >= 0; i-- {
		if t.clientSet[i] {
			id := clientBase - NodeID(i)
			emitSparseBelow(id)
			fn(id, t.clients[i])
		}
	}
	emitSparseBelow(Origin)
	if t.originSet {
		fn(Origin, t.origin)
	}
	emitSparseBelow(0)
	for i := range t.proxies {
		if t.proxySet[i] {
			id := NodeID(i)
			emitSparseBelow(id)
			fn(id, t.proxies[i])
		}
	}
	emitSparseBelow(NodeID(1<<31 - 1))
}
