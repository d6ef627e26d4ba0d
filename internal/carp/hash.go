// Package carp is the hash of the hashing-based distributed caching baseline
// the paper compares against (§V.1.1): the Cache Array Routing Protocol
// (ref [29], Cohen et al., internet draft v1.1). A globally known hash
// function assigns every object to exactly one proxy; unresolved requests
// are forwarded there, and that proxy caches the object with plain LRU and
// replies to the client directly, bypassing the first-hit proxy — the
// placement policy internal/lru builds on an Assigner.
package carp

import (
	"math/bits"

	"github.com/adc-sim/adc/internal/ids"
)

// Assigner is the globally known object→proxy mapping. Hasher (CARP's
// highest-random-weight hash) is the paper's baseline; internal/chash's
// consistent-hashing ring is the extension comparator. Every proxy in an
// array must hold an equivalent Assigner.
type Assigner interface {
	Assign(obj ids.ObjectID) ids.NodeID
}

var _ Assigner = (*Hasher)(nil)

// Hasher deterministically maps objects onto a fixed proxy membership
// using CARP's highest-random-weight (rendezvous) construction: each
// (object, member) pair gets a combined score and the member with the
// highest score owns the object. Unlike modulo hashing, membership changes
// only remap 1/n of the objects — the property that made CARP attractive
// for proxy arrays.
type Hasher struct {
	members []ids.NodeID
	// memberHash holds the precomputed per-member hashes of the draft's
	// Section 3.1.
	memberHash []uint64
}

// NewHasher builds the global hash over the given membership. The member
// list must be non-empty; every proxy in the system constructs an
// identical Hasher, which is what "globally known hashing function" means.
func NewHasher(members []ids.NodeID) *Hasher {
	ms := make([]ids.NodeID, len(members))
	copy(ms, members)
	mh := make([]uint64, len(ms))
	for i, m := range ms {
		mh[i] = memberHash(uint64(m))
	}
	return &Hasher{members: ms, memberHash: mh}
}

// Assign returns the proxy responsible for obj.
func (h *Hasher) Assign(obj ids.ObjectID) ids.NodeID {
	oh := objectHash(uint64(obj))
	best := 0
	bestScore := combine(oh, h.memberHash[0])
	for i := 1; i < len(h.memberHash); i++ {
		if s := combine(oh, h.memberHash[i]); s > bestScore {
			bestScore = s
			best = i
		}
	}
	return h.members[best]
}

// The CARP draft hashes URL strings with a rotating hash and combines with
// the member hash via XOR, a multiplicative scramble and a rotation. Our
// object IDs are already integers, so the string-walk is replaced by a
// 64-bit finalizer (SplitMix64) with the draft's combine step on top; the
// distribution properties (uniform, deterministic, member-independent) are
// what the baseline's behaviour depends on, not the exact constants.

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func objectHash(x uint64) uint64 { return splitmix64(x) }

func memberHash(x uint64) uint64 {
	// The draft multiplies the member hash by a constant to spread it;
	// we scramble twice with distinct offsets.
	return splitmix64(splitmix64(x ^ 0xC0FFEE))
}

// combine mirrors the draft's combination step on 64-bit lanes:
// XOR, multiply by the draft's constant, rotate left by 21.
func combine(objHash, memHash uint64) uint64 {
	v := objHash ^ memHash
	v += v * 0x62531965
	return bits.RotateLeft64(v, 21)
}
