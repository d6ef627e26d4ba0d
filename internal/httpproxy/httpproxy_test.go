package httpproxy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/workload"
)

func testFarm(t *testing.T, proxies int) *Farm {
	t.Helper()
	f, err := NewFarm(FarmConfig{
		Proxies: proxies,
		Tables:  core.Config{SingleSize: 256, MultipleSize: 128, CachingSize: 64},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Errorf("farm close: %v", err)
		}
	})
	return f
}

func TestParseObjectPath(t *testing.T) {
	if obj, err := parseObjectPath("/obj/42"); err != nil || obj != 42 {
		t.Errorf("parse = %v, %v", obj, err)
	}
	for _, bad := range []string{"/obj/", "/obj/xyz", "/other/1", "/obj/-3"} {
		if _, err := parseObjectPath(bad); err == nil {
			t.Errorf("parseObjectPath(%q) must fail", bad)
		}
	}
}

func TestParseNodeID(t *testing.T) {
	if got := parseNodeID("Proxy[3]"); got != 3 {
		t.Errorf("parse Proxy[3] = %v", got)
	}
	for _, bad := range []string{"", "Origin", "Proxy[x]", "Proxy[3", "Client[0]", "Proxy[-2]"} {
		if got := parseNodeID(bad); got != ids.None {
			t.Errorf("parseNodeID(%q) = %v, want None", bad, got)
		}
	}
}

func TestSingleObjectEndToEnd(t *testing.T) {
	f := testFarm(t, 3)
	// First fetch: must be a miss served by the origin, payload intact.
	hit, err := f.Get(0, 7, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first fetch cannot be a proxy hit")
	}
	if f.Origin.Resolved() != 1 {
		t.Errorf("origin resolved %d, want 1", f.Origin.Resolved())
	}
}

func TestHotObjectGetsCachedAndServed(t *testing.T) {
	f := testFarm(t, 3)
	hits := 0
	for i := 1; i <= 60; i++ {
		hit, err := f.Get(i%3, 5, "r"+strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			hits++
		}
	}
	if hits < 40 {
		t.Errorf("hot object hit only %d/60 through the HTTP farm", hits)
	}
	cached := 0
	for _, p := range f.Proxies {
		cached += p.CacheLen()
	}
	if cached == 0 {
		t.Error("no proxy stored the hot payload")
	}
}

func TestPayloadIntegrityAcrossManyObjects(t *testing.T) {
	f := testFarm(t, 4)
	// Get verifies body == Payload(obj) internally; any corruption in
	// the store/forward path fails the test.
	for i := 1; i <= 120; i++ {
		obj := ids.ObjectID(i % 17)
		if _, err := f.Get(i%4, obj, "rr"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoopDetectionOverHTTP(t *testing.T) {
	f := testFarm(t, 2)
	// Cold objects over two proxies: random walks must loop and still
	// terminate at the origin, never hang or 5xx.
	loops := uint64(0)
	for i := 1; i <= 40; i++ {
		if _, err := f.Get(0, ids.ObjectID(1000+i), "cold"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range f.Proxies {
		loops += p.Stats().LoopsDetected
	}
	if loops == 0 {
		t.Error("40 cold walks over 2 proxies should detect loops")
	}
}

func TestMissingRequestIDRejected(t *testing.T) {
	f := testFarm(t, 1)
	resp, err := http.Get(f.Proxies[0].URL() + "/obj/1") // no X-Adc-Request-Id
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestBadPathsRejected(t *testing.T) {
	f := testFarm(t, 1)
	for _, path := range []string{"/obj/notanumber", "/obj/"} {
		req, err := http.NewRequest(http.MethodGet, f.Proxies[0].URL()+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(HeaderRequestID, "x")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // test
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s status = %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	f := testFarm(t, 4)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				obj := ids.ObjectID(i % 11)
				reqID := fmt.Sprintf("c%d-%d", c, i)
				if _, err := f.Get((c+i)%4, obj, reqID); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Pending maps must fully drain.
	for _, p := range f.Proxies {
		p.mu.Lock()
		n := len(p.pending)
		p.mu.Unlock()
		if n != 0 {
			t.Errorf("proxy %v has %d dangling pending entries", p.ID(), n)
		}
	}
}

func TestRunWorkloadHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("HTTP farm workload is slow")
	}
	f := testFarm(t, 3)
	gen, err := workload.New(workload.Config{
		TotalRequests:  2000,
		PopulationSize: 50,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := f.RunWorkload(gen, 3)
	if err != nil {
		t.Fatal(err)
	}
	if col.Requests() != 2000 {
		t.Fatalf("completed %d requests", col.Requests())
	}
	if col.CumHitRate() < 0.3 {
		t.Errorf("hit rate %.3f too low for a 50-object hot set", col.CumHitRate())
	}
	// Client-side misses must match the origin's own count.
	misses := col.Requests() - col.Hits()
	if f.Origin.Resolved() != misses {
		t.Errorf("origin resolved %d, client counted %d misses",
			f.Origin.Resolved(), misses)
	}
}

func TestFarmConfigValidation(t *testing.T) {
	if _, err := NewFarm(FarmConfig{Proxies: 0}); err == nil {
		t.Error("zero proxies must fail")
	}
	if _, err := NewFarm(FarmConfig{Proxies: 1}); err == nil {
		t.Error("invalid tables must fail")
	}
}

// TestUpstreamBodyIsBounded drives a proxy against an origin that lies
// about its body: one reply declares more bytes than it sends, one declares
// more than maxBodyBytes, one streams past maxBodyBytes with no declared
// length. Each is a fetch error — 502 to the client, nothing stored, the
// pending pass retired — and the proxy keeps serving honest replies.
func TestUpstreamBodyIsBounded(t *testing.T) {
	const (
		short = ids.ObjectID(iota + 1)
		declaredHuge
		streamedHuge
		honest
	)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obj, err := parseObjectPath(r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set(HeaderOrigin, "1")
		switch obj {
		case short:
			w.Header().Set("Content-Length", "100")
			_, _ = w.Write([]byte("ten bytes."))
		case declaredHuge:
			w.Header().Set("Content-Length", strconv.Itoa(maxBodyBytes+1))
			_, _ = w.Write([]byte("ten bytes."))
		case streamedHuge:
			w.(http.Flusher).Flush() // headers go out chunked, with no length
			chunk := make([]byte, 64<<10)
			for sent := 0; sent <= maxBodyBytes; sent += len(chunk) {
				if _, err := w.Write(chunk); err != nil {
					return // the proxy hung up at the limit
				}
			}
		default:
			_, _ = w.Write(Payload(obj))
		}
	}))
	defer origin.Close()
	p := stormProxy(t, origin.URL, Config{ID: 0})

	for _, obj := range []ids.ObjectID{short, declaredHuge, streamedHuge} {
		if code := stormGet(t, p, obj, "lie-"+strconv.Itoa(int(obj))); code != http.StatusBadGateway {
			t.Errorf("object %v: status %d, want 502", obj, code)
		}
	}
	if code := stormGet(t, p, honest, "honest"); code != http.StatusOK {
		t.Errorf("honest object after the lies: status %d, want 200", code)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, obj := range []ids.ObjectID{short, declaredHuge, streamedHuge} {
		if _, ok := p.store[obj]; ok {
			t.Errorf("object %v: a failed fetch left a stored payload", obj)
		}
	}
	if len(p.pending) != 0 {
		t.Errorf("pending passes not retired: %v", p.pending)
	}
}

// TestFarmCloseDrainsInFlight closes a farm under closed-loop traffic.
// Each proxy admits one entry request at a time, so when Close begins
// some admitted requests are at the slow origin and others still wait at
// their entry proxy's gate, their chains not yet started. Every request
// still gets a verified 200, unless it arrived after Close began and was
// refused: with a 503, or at the dial once the listeners have closed.
func TestFarmCloseDrainsInFlight(t *testing.T) {
	const proxies, clients = 3, 9
	var mu sync.Mutex
	inside := map[string]bool{} // request IDs at the origin right now
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obj, err := parseObjectPath(r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id := r.Header.Get(HeaderRequestID)
		mu.Lock()
		inside[id] = true
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		delete(inside, id)
		mu.Unlock()
		w.Header().Set(HeaderOrigin, "1")
		_, _ = w.Write(Payload(obj))
	}))
	defer origin.Close()
	f := &Farm{client: sharedClient}
	book := make(map[ids.NodeID]string, proxies)
	for i := 0; i < proxies; i++ {
		p, err := NewProxy(Config{
			ID:        ids.NodeID(i),
			Tables:    core.Config{SingleSize: 256, MultipleSize: 128, CachingSize: 64},
			OriginURL: origin.URL,
			Seed:      1,
			MaxActive: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Proxies = append(f.Proxies, p)
		book[p.ID()] = p.URL()
	}
	for _, p := range f.Proxies {
		p.SetPeers(book)
	}

	var stop atomic.Bool
	results := map[string]error{}
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				id := fmt.Sprintf("d%d-%d", c, n)
				_, err := f.Get(c%proxies, ids.ObjectID(c*1_000_000+n), id) // every object new: a chain to the origin
				mu.Lock()
				results[id] = err
				mu.Unlock()
			}
		}(c)
	}
	waitFor(t, 5*time.Second, "requests at the origin and at a gate", func() bool {
		mu.Lock()
		atOrigin := len(inside)
		mu.Unlock()
		queued := int64(0)
		for _, p := range f.Proxies {
			queued += p.QueueDepth()
		}
		return atOrigin >= 2 && queued > 0
	})
	mu.Lock()
	atOrigin := make([]string, 0, len(inside))
	for id := range inside {
		atOrigin = append(atOrigin, id)
	}
	mu.Unlock()
	stop.Store(true)
	if err := f.Close(); err != nil {
		t.Errorf("farm close: %v", err)
	}
	wg.Wait()
	for _, id := range atOrigin {
		if err := results[id]; err != nil {
			t.Errorf("request %s was at the origin at Close and failed: %v", id, err)
		}
	}
	for id, err := range results {
		var op *net.OpError
		refused := err != nil && (strings.Contains(err.Error(), "status 503") || errors.As(err, &op) && op.Op == "dial")
		if err != nil && !refused {
			t.Errorf("request %s: %v", id, err)
		}
	}
}

// TestPayloadFormat: Payload's strconv build writes the bytes its fmt
// format wrote, which clients compare every reply against.
func TestPayloadFormat(t *testing.T) {
	objs := []uint64{0, 1, 1 << 63, math.MaxUint64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		objs = append(objs, rng.Uint64()>>uint(rng.Intn(64)))
	}
	for _, obj := range objs {
		want := fmt.Sprintf("object %d body: %x", obj, obj*0x9E3779B97F4A7C15)
		if got := Payload(ids.ObjectID(obj)); string(got) != want {
			t.Fatalf("Payload(%d) = %q, want %q", obj, got, want)
		}
	}
}
