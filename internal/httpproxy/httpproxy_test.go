package httpproxy

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

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
