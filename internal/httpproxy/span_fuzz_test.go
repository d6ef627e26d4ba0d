package httpproxy

import (
	"net/http"
	"testing"

	"github.com/adc-sim/adc/internal/obs"
)

// FuzzSpanHeaders feeds arbitrary X-Adc-Trace/X-Adc-Span values — hex a
// proxy reads off a socket — to spanContext. Whatever arrives, decoding
// must not panic, a context it accepts carries a non-zero trace (zero is
// the "untraced" sentinel), and what setHeaders writes for the next hop
// decodes there to the same trace with the forward span as parent.
func FuzzSpanHeaders(f *testing.F) {
	f.Add("1a2b", "ff", 1, uint64(42))
	f.Add("", "", 0, uint64(7))
	f.Add("0", "1", 2, uint64(0))
	f.Add("10000000000000000", "-1", 1, uint64(1)<<63)
	f.Add("0x1f", "DEADBEEF", 3, ^uint64(0))
	f.Fuzz(func(t *testing.T, trace, span string, forwards int, spanID uint64) {
		p := &Proxy{id: 2, tracing: Tracing{Enabled: true, SampleEvery: 1}, spans: obs.NewSpanRing(4)}
		h := http.Header{}
		if trace != "" {
			h.Set(HeaderTrace, trace)
		}
		h.Set(HeaderSpan, span)
		sc := p.spanContext(h, forwards)
		if sc == nil {
			return
		}
		if sc.trace == 0 {
			t.Fatalf("accepted trace %q span %q as the zero trace", trace, span)
		}

		next := http.Header{}
		sc.setHeaders(next, spanID)
		back := p.spanContext(next, forwards+1)
		if back == nil || back.trace != sc.trace || back.root != spanID {
			t.Fatalf("round trip of trace %x parent %x through %v decoded as %+v", sc.trace, spanID, next, back)
		}
	})
}
