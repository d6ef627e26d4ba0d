package ids

import "fmt"

// ShardMap partitions the NodeID space across the shards of the
// virtual-time engine (internal/sim.VEngine). The partition is pure
// arithmetic — no maps — so ShardOf stays cheap enough to call on every
// Send.
//
// The grouping heuristic is "proxies with their clients": the proxy ID
// range [0, ProxySpan) splits into contiguous blocks, one block per shard,
// and client i is colocated with its home proxy (i mod ProxySpan). Under
// the round-robin-ish client wiring the cluster layer uses, that keeps a
// client on the same shard as the proxy it most often enters, so the bulk
// of client↔proxy traffic never crosses a shard boundary — the min-cut-ish
// objective without solving an actual min-cut. The origin server lives on
// shard 0: it is a single node and cannot be split, only colocated.
//
// A ShardMap is immutable after construction and safe for concurrent use.
type ShardMap struct {
	shards    int
	proxySpan int
}

// NewShardMap builds the partition for a topology whose proxy-range IDs are
// the contiguous block [0, proxySpan). shards must be at least 1; a
// one-shard map degenerates to "everything on shard 0".
func NewShardMap(shards, proxySpan int) (ShardMap, error) {
	if shards < 1 {
		return ShardMap{}, fmt.Errorf("ids: shard count must be at least 1, got %d", shards)
	}
	if proxySpan < 1 {
		return ShardMap{}, fmt.Errorf("ids: proxy span must be at least 1, got %d", proxySpan)
	}
	return ShardMap{shards: shards, proxySpan: proxySpan}, nil
}

// Shards returns the number of shards in the partition.
func (m ShardMap) Shards() int { return m.shards }

// ShardOf maps any NodeID to its owning shard. The function is total:
// proxies map by contiguous block, clients colocate with their home proxy,
// and the origin (and any reserved ID) lands on shard 0.
func (m ShardMap) ShardOf(id NodeID) int {
	switch {
	case id.IsProxy():
		p := int(id)
		if p >= m.proxySpan {
			// Defensive: an out-of-span proxy ID (never produced by the
			// cluster wiring) still maps somewhere stable.
			p = m.proxySpan - 1
		}
		return p * m.shards / m.proxySpan
	case id.IsClient():
		home := id.ClientIndex() % m.proxySpan
		return home * m.shards / m.proxySpan
	default: // Origin, None and the reserved gap
		return 0
	}
}
