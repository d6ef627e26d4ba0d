//go:build !race

package cluster

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
