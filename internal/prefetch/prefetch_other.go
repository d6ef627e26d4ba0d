//go:build !amd64 && !arm64

package prefetch

import "unsafe"

// Line is a no-op on this architecture: the hint has no instruction here,
// and leaving it out changes nothing but speed (see prefetch.go).
func Line(unsafe.Pointer) {}
