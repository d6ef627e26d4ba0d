package httpproxy

import (
	"errors"
	"net/http"
	"sync"

	"github.com/adc-sim/adc/internal/ids"
)

// Miss coalescing (singleflight). Under a flash crowd, N concurrent
// requests for the same cold object used to produce N identical upstream
// chains; the materialized-trace cache solved the same stampede in-process
// (workload.TraceCache), and this lifts the pattern onto the proxy miss
// path: the first miss becomes the flight leader and performs the real
// upstream fetch, every concurrent duplicate waits on the flight and
// shares the leader's response. Each waiter still runs its own
// Receive_Reply table update, so ADC's learning sees every request.
//
// Coalescing is restricted to entry requests (X-Adc-Forwards == 0). A
// forwarded hop is part of another proxy's chain; letting it join a
// flight whose leader's own chain may pass through that proxy would tie a
// waits-for knot across the fleet (P's leader waits on Q, Q's leader
// waits on P). Entry requests are never on anyone's chain, so a flight
// leader's fetch can only block on non-coalesced work, which terminates
// via loop detection or the origin.

// flightResult is the part of an upstream response every waiter shares.
// The body is written verbatim to each waiter and stored at most once;
// payloads are immutable, so sharing the slice is safe.
type flightResult struct {
	body   []byte
	hdr    http.Header
	status int
	err    error
}

// errLeaderPanicked is what a flight's waiters receive when the leader's
// fetch panicked instead of returning.
var errLeaderPanicked = errors.New("httpproxy: flight leader panicked")

// flight is one in-progress upstream fetch.
type flight struct {
	done chan struct{}
	res  flightResult
}

// flightGroup deduplicates concurrent fetches per object.
type flightGroup struct {
	mu sync.Mutex
	m  map[ids.ObjectID]*flight
}

// do returns fn's result, either by running it (leader) or by waiting for
// the flight a concurrent leader already started. shared reports whether
// the caller rode along instead of fetching.
func (g *flightGroup) do(obj ids.ObjectID, fn func() flightResult) (res flightResult, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[ids.ObjectID]*flight)
	}
	if f, ok := g.m[obj]; ok {
		g.mu.Unlock()
		<-f.done
		return f.res, true
	}
	f := &flight{done: make(chan struct{}), res: flightResult{err: errLeaderPanicked}}
	g.m[obj] = f
	g.mu.Unlock()

	// Retire the flight before waking waiters so a request arriving
	// after completion starts a fresh fetch instead of reading a stale
	// result. Deferred, because net/http recovers a handler panic: a
	// leader that panicked in fn would otherwise leave its flight in g.m
	// and every later request for obj would block on it holding a gate
	// slot. The waiters get errLeaderPanicked, the panic keeps unwinding
	// the leader.
	defer func() {
		g.mu.Lock()
		delete(g.m, obj)
		g.mu.Unlock()
		close(f.done)
	}()
	f.res = fn()
	return f.res, false
}
