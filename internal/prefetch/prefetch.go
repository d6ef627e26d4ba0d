//go:build amd64 || arm64

// Package prefetch asks the CPU to start loading a cache line early. The
// simulator knows some of the lines it will miss on before it needs them —
// a table's next probe, the next message a lookahead window delivers — and
// overlaps those misses with other work.
package prefetch

import "unsafe"

// Line asks the CPU to start loading the cache line at p into its caches
// and returns at once: a hint, never a load, so it cannot fault, changes no
// memory and no result, and its only effect is that a later read of that
// line may find it already cached. It is PREFETCHT0 on amd64 and PRFM
// PLDL1KEEP on arm64; prefetch_other.go makes it a no-op everywhere else.
//
//go:noescape
func Line(p unsafe.Pointer)
