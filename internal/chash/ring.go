// Package chash implements a consistent-hashing ring (Karger et al., the
// paper's ref [13]) as an extension baseline next to CARP. The paper cites
// consistent hashing as the other canonical "hashing based" allocation; the
// ring lets the benchmark harness compare ADC against both, and its join
// support powers the infrastructure-change experiments the paper lists as
// future work (§V.1).
package chash

import (
	"fmt"
	"sort"

	"github.com/adc-sim/adc/internal/carp"
	"github.com/adc-sim/adc/internal/ids"
)

// DefaultReplicas is the virtual-node count per proxy. 128 keeps the
// maximum/minimum load ratio within a few percent for small arrays.
const DefaultReplicas = 128

// Ring maps objects to proxies by hashing both onto a circle; an object
// belongs to the first virtual node clockwise from its hash.
type Ring struct {
	replicas int
	points   []point // sorted by hash
	members  map[ids.NodeID]bool
}

type point struct {
	hash uint64
	node ids.NodeID
}

var _ carp.Assigner = (*Ring)(nil)

// NewRing builds a ring over members with the given number of virtual
// nodes per member (0 selects DefaultReplicas).
func NewRing(members []ids.NodeID, replicas int) (*Ring, error) {
	if replicas == 0 {
		replicas = DefaultReplicas
	}
	if replicas < 0 {
		return nil, fmt.Errorf("chash: replicas must be positive, got %d", replicas)
	}
	r := &Ring{replicas: replicas, members: make(map[ids.NodeID]bool)}
	for _, m := range members {
		if err := r.Add(m); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Add joins a proxy to the ring.
func (r *Ring) Add(n ids.NodeID) error {
	if r.members[n] {
		return fmt.Errorf("chash: %v already in ring", n)
	}
	r.members[n] = true
	for i := 0; i < r.replicas; i++ {
		h := pointHash(uint64(n), uint64(i))
		r.points = append(r.points, point{hash: h, node: n})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return nil
}

// Assign implements carp.Assigner.
func (r *Ring) Assign(obj ids.ObjectID) ids.NodeID {
	if len(r.points) == 0 {
		return ids.None
	}
	h := objectPointHash(uint64(obj))
	i := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= h
	})
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return r.points[i].node
}

func pointHash(node, replica uint64) uint64 {
	return mix(mix(node*0x9E3779B97F4A7C15) ^ mix(replica+0xABCDEF))
}

func objectPointHash(obj uint64) uint64 { return mix(obj + 0x1234567) }

// mix is SplitMix64's finalizer.
func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
