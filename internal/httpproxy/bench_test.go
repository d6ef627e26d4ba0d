package httpproxy

import (
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
	h := p.Handler()
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
