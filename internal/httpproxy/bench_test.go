package httpproxy

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
)

// BenchmarkHandleHit serves one cached object straight through the proxy's
// handler — no socket, no net/http client or server loop — which is the
// floor bench/'s httpproxy.entry_self_us_p50 and local_hit_rtt_us_p50 are
// read against: what a hit costs in this package's own code (path and
// header parsing, the gate, Arrive under p.mu, the reply headers, the
// stage histograms).
func BenchmarkHandleHit(b *testing.B) {
	p, err := NewProxy(Config{
		ID:     0,
		Tables: core.Config{SingleSize: 2000, MultipleSize: 2000, CachingSize: 1000},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = p.Close() })
	const obj = ids.ObjectID(42)
	p.mu.Lock()
	_, adopted := p.adc.Tables().ForceCache(obj, p.id, 1, 0)
	p.store[obj] = Payload(obj)
	p.mu.Unlock()
	if !adopted {
		b.Fatal("setup: ForceCache failed")
	}

	req := httptest.NewRequest(http.MethodGet, ObjectURL(p.URL(), obj), nil)
	req.Header.Set(HeaderRequestID, "bench")
	h := p.handler
	w := &discardWriter{hdr: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.hdr)
		w.status = 0
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if w.status != 0 || w.hdr.Get(HeaderCached) != "1" || w.n != len(Payload(obj)) {
		b.Fatalf("not a local hit: status %d, headers %v, %d body bytes", w.status, w.hdr, w.n)
	}
}

// BenchmarkForwardedMiss fetches an object a lone proxy does not hold, the
// proxy's whole miss path over loopback: the client's round trip through
// the shared Transport, the entry request, its random forward to the
// proxy itself, where the loop is caught, and the fetch from the origin,
// with Receive_Reply at both hops. It is the farm hop's profile target
// (make bench-profile); a forwarded miss's allocations are gated by
// TestHopAllocs. The requests cycle through missCycle objects, far more
// than the tables hold, so each one is a miss.
func BenchmarkForwardedMiss(b *testing.B) {
	origin, err := NewOrigin()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = origin.Close() })
	p, err := NewProxy(Config{
		ID:        0,
		Tables:    core.Config{SingleSize: 64, MultipleSize: 64, CachingSize: 64},
		OriginURL: origin.URL(),
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = p.Close() })
	p.SetPeers(map[ids.NodeID]string{p.ID(): p.URL()})

	const missCycle = 4096
	reqs := make([]*http.Request, missCycle)
	for i := range reqs {
		req, err := http.NewRequest(http.MethodGet, ObjectURL(p.URL(), ids.ObjectID(i)), nil)
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set(HeaderRequestID, "bench")
		reqs[i] = req
	}
	tr := sharedClient.Transport
	buf := make([]byte, 256)
	fromOrigin := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := tr.RoundTrip(reqs[i%missCycle])
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.ReadFull(resp.Body, buf)
		if err != io.ErrUnexpectedEOF || resp.StatusCode != http.StatusOK || n != len(Payload(ids.ObjectID(i%missCycle))) {
			b.Fatalf("status %d, %d body bytes, %v", resp.StatusCode, n, err)
		}
		if resp.Header.Get(HeaderOrigin) == "1" {
			fromOrigin++
		}
	}
	b.StopTimer()
	if fromOrigin != b.N {
		b.Fatalf("%d of %d requests reached the origin, want every one", fromOrigin, b.N)
	}
}

// discardWriter is the cheapest http.ResponseWriter: the benchmark times
// the handler, not a recorder's buffer.
type discardWriter struct {
	hdr    http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header  { return w.hdr }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.n = len(b)
	return len(b), nil
}
