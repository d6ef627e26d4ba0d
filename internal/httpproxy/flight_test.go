package httpproxy

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
)

// slowOrigin is an origin stand-in whose responses take `delay`, widening
// the miss window so every concurrent client is guaranteed to arrive while
// the first chain is still in flight — the deterministic version of a
// flash crowd.
type slowOrigin struct {
	srv     *httptest.Server
	fetches atomic.Uint64
}

func newSlowOrigin(delay time.Duration) *slowOrigin {
	o := &slowOrigin{}
	o.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obj, err := parseObjectPath(r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		o.fetches.Add(1)
		time.Sleep(delay)
		w.Header().Set(HeaderOrigin, "1")
		_, _ = w.Write(Payload(obj))
	}))
	return o
}

// stormProxy builds a single proxy whose only peer is itself, backed by a
// slow origin: a miss random-forwards to itself, trips loop detection, and
// resolves at the origin — the shortest chain that still exercises the
// full forwarding path.
func stormProxy(t *testing.T, origin string, cfg Config) *Proxy {
	t.Helper()
	cfg.OriginURL = origin
	if cfg.Tables == (core.Config{}) {
		cfg.Tables = core.Config{SingleSize: 64, MultipleSize: 64, CachingSize: 64}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	p, err := NewProxy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	p.SetPeers(map[ids.NodeID]string{p.ID(): p.URL()})
	return p
}

// stormGet issues one entry request and returns the status code.
func stormGet(t *testing.T, p *Proxy, obj ids.ObjectID, reqID string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ObjectURL(p.URL(), obj), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderRequestID, reqID)
	resp, err := sharedClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // read side
	if resp.StatusCode == http.StatusOK && string(body) != string(Payload(obj)) {
		t.Errorf("payload corruption for %v: %q", obj, body)
	}
	return resp.StatusCode
}

// TestMissStormCoalesces is the singleflight contract: N concurrent entry
// requests for one cold object produce exactly one origin fetch and N
// correct replies.
func TestMissStormCoalesces(t *testing.T) {
	const clients = 32
	origin := newSlowOrigin(150 * time.Millisecond)
	defer origin.srv.Close()
	p := stormProxy(t, origin.srv.URL, Config{ID: 0})

	obj := ids.ObjectID(999)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			if code := stormGet(t, p, obj, "storm-"+strconv.Itoa(c)); code != http.StatusOK {
				t.Errorf("client %d: status %d", c, code)
			}
		}(c)
	}
	wg.Wait()

	if got := origin.fetches.Load(); got != 1 {
		t.Errorf("origin fetched %d times, want exactly 1", got)
	}
	if got := p.Stats().CoalescedMisses; got != clients-1 {
		t.Errorf("CoalescedMisses = %d, want %d", got, clients-1)
	}
}

// TestMissStormNoCoalesce is the ablation: with singleflight disabled the
// same storm hits the origin once per client.
func TestMissStormNoCoalesce(t *testing.T) {
	const clients = 8
	origin := newSlowOrigin(150 * time.Millisecond)
	defer origin.srv.Close()
	p := stormProxy(t, origin.srv.URL, Config{ID: 0, NoCoalesce: true})

	obj := ids.ObjectID(999)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			if code := stormGet(t, p, obj, "nc-"+strconv.Itoa(c)); code != http.StatusOK {
				t.Errorf("client %d: status %d", c, code)
			}
		}(c)
	}
	wg.Wait()

	if got := origin.fetches.Load(); got != clients {
		t.Errorf("origin fetched %d times, want %d (one per client)", got, clients)
	}
	if got := p.Stats().CoalescedMisses; got != 0 {
		t.Errorf("CoalescedMisses = %d, want 0 with coalescing disabled", got)
	}
}

// TestAdmissionShedsAtBound floods a proxy bounded to 2 active entry
// requests (no queue) with 10 concurrent clients for distinct objects: 2
// are admitted, 8 are shed with 429 + Retry-After. The admitted chains
// forward through the proxy itself while it is saturated — forwarded hops
// bypassing the gate is what keeps that from deadlocking.
func TestAdmissionShedsAtBound(t *testing.T) {
	const (
		clients   = 10
		maxActive = 2
	)
	origin := newSlowOrigin(300 * time.Millisecond)
	defer origin.srv.Close()
	p := stormProxy(t, origin.srv.URL, Config{ID: 0, MaxActive: maxActive, MaxQueue: -1})

	var ok, shed atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			// Distinct objects so coalescing cannot mask admission.
			switch code := stormGet(t, p, ids.ObjectID(1000+c), "gate-"+strconv.Itoa(c)); code {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
			default:
				t.Errorf("client %d: status %d", c, code)
			}
		}(c)
	}
	wg.Wait()

	if ok.Load() != maxActive || shed.Load() != clients-maxActive {
		t.Errorf("ok=%d shed=%d, want %d admitted and %d shed",
			ok.Load(), shed.Load(), maxActive, clients-maxActive)
	}
	if got := p.Stats().Shed; got != clients-maxActive {
		t.Errorf("Stats().Shed = %d, want %d", got, clients-maxActive)
	}
}

// TestGateBounds covers the gate state machine directly, including the
// bounded wait queue and the nil (unlimited) gate.
func TestGateBounds(t *testing.T) {
	g := newGate(1, -1) // one slot, no queue
	if !g.enter() {
		t.Fatal("first enter must succeed")
	}
	if g.enter() {
		t.Fatal("second enter must fail with no queue")
	}
	g.leave()
	if !g.enter() {
		t.Fatal("enter after leave must succeed")
	}
	g.leave()

	q := newGate(1, 1) // one slot, one queue seat
	if !q.enter() {
		t.Fatal("slot enter must succeed")
	}
	acquired := make(chan bool)
	go func() { acquired <- q.enter() }() // takes the queue seat
	waitDepth := func(want int64) {
		for start := time.Now(); q.depth() != want; {
			if time.Since(start) > 5*time.Second {
				t.Errorf("queue depth never reached %d", want)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitDepth(1)
	if q.enter() {
		t.Fatal("enter must fail once the queue seat is taken")
	}
	q.leave() // hands the slot to the queued waiter
	if !<-acquired {
		t.Fatal("queued waiter must acquire the freed slot")
	}
	q.leave()

	var nilGate *gate
	if !nilGate.enter() {
		t.Fatal("nil gate must admit everything")
	}
	nilGate.leave()
	if nilGate.depth() != 0 {
		t.Fatal("nil gate has no queue")
	}
}

// TestFlightGroupShares exercises the flightGroup on its own: concurrent
// do() calls for one key run fn once and share the result; a later call
// after completion runs fn again (the flight is retired, not cached).
func TestFlightGroupShares(t *testing.T) {
	const waiters = 10
	var g flightGroup
	var calls atomic.Uint64
	release := make(chan struct{})
	fn := func() flightResult {
		calls.Add(1)
		<-release
		return flightResult{status: http.StatusOK, body: []byte("shared")}
	}

	results := make(chan flightResult, waiters)
	sharedCount := atomic.Uint64{}
	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			res, shared := g.do(1, fn)
			if shared {
				sharedCount.Add(1)
			}
			results <- res
		}()
	}
	// Wait until the leader is inside fn, then give the joiners a beat to
	// pile onto the flight before releasing it.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	close(results)

	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	for res := range results {
		if string(res.body) != "shared" || res.status != http.StatusOK {
			t.Errorf("waiter got %+v, want the shared result", res)
		}
	}
	if sharedCount.Load() != waiters-1 {
		t.Errorf("%d waiters reported shared, want %d", sharedCount.Load(), waiters-1)
	}

	// The flight is retired: a fresh do() runs fn again.
	ran := false
	res, shared := g.do(1, func() flightResult {
		ran = true
		return flightResult{status: http.StatusOK, body: []byte("fresh")}
	})
	if !ran || shared || string(res.body) != "fresh" {
		t.Errorf("post-completion do() must run fresh: ran=%v shared=%v body=%q", ran, shared, res.body)
	}
}

// TestFlightGroupLeaderPanics: net/http recovers a handler panic, so a
// leader whose fn panics must still retire its flight. The waiters return
// an error result instead of blocking forever, the panic reaches the
// leader's caller, and the next do() for the object runs its own fn.
func TestFlightGroupLeaderPanics(t *testing.T) {
	const waiters = 4
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		g.do(1, func() flightResult {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered

	results := make(chan flightResult, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			res, shared := g.do(1, func() flightResult { return flightResult{status: http.StatusOK} })
			if !shared {
				t.Error("waiter ran its own fn while the leader's flight was open")
			}
			results <- res
		}()
	}
	// Same beat as TestFlightGroupShares: let the joiners pile onto the
	// flight before the leader blows up.
	time.Sleep(50 * time.Millisecond)
	close(release)

	if r := <-recovered; r != "boom" {
		t.Errorf("leader's caller recovered %v, want the original panic", r)
	}
	for i := 0; i < waiters; i++ {
		select {
		case res := <-results:
			if !errors.Is(res.err, errLeaderPanicked) {
				t.Errorf("waiter got %+v, want errLeaderPanicked", res)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter still blocked on a flight whose leader panicked")
		}
	}

	ran := false
	res, shared := g.do(1, func() flightResult {
		ran = true
		return flightResult{status: http.StatusOK}
	})
	if !ran || shared || res.status != http.StatusOK {
		t.Errorf("do() after a panicked flight must run fresh: ran=%v shared=%v res=%+v", ran, shared, res)
	}
}
