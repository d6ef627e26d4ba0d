//go:build !race

package httpproxy

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
