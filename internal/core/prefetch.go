//go:build amd64 || arm64

package core

import "unsafe"

// prefetch asks the CPU to start loading the cache line at p into its
// caches and returns at once: a hint, never a load, so it cannot fault,
// changes no memory and no result, and its only effect is that a later
// read of that line may find it already cached. It is PREFETCHT0 on
// amd64 and PRFM PLDL1KEEP on arm64; prefetch_other.go makes it a no-op
// everywhere else.
//
//go:noescape
func prefetch(p unsafe.Pointer)
