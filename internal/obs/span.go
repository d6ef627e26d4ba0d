package obs

import "sync"

// Span is one timed operation inside a traced request on the HTTP farm.
// Spans form cross-proxy trees: the entry proxy mints a Trace ID and a root
// span, and every hop — forwards, retries, hedges, origin fetches, gate and
// flight waits, fetches refused to a down peer — opens a child span linked
// by Parent. The span ID travels between proxies in the X-Adc-Span request
// header, so a receiving proxy's server span parents onto the sender's
// forward span and cmd/adctrace can stitch the per-proxy rings back into
// one tree.
//
// Unlike Event (virtual-time, single process), Span timestamps are each
// recording proxy's own wall clock in unix microseconds; MergeDumps aligns
// them across proxies before tree building.
type Span struct {
	// Trace groups every span of one logical request.
	Trace uint64 `json:"trace"`
	// ID is unique within the trace (the recording proxy's index sits in
	// the top bits, so two proxies never collide).
	ID uint64 `json:"id"`
	// Parent is the enclosing span's ID; 0 marks the trace root.
	Parent uint64 `json:"parent,omitempty"`
	// Node is the recording proxy's index (-1 for non-proxy recorders).
	Node int32 `json:"node"`
	// Stage names what the span timed (the Span* constants).
	Stage string `json:"stage"`
	// Obj is the requested object's ID.
	Obj uint64 `json:"obj,omitempty"`
	// Start and End are unix microseconds on the recording proxy's clock.
	Start int64 `json:"start_us"`
	End   int64 `json:"end_us"`
	// Detail carries stage-specific context: the forward destination,
	// the resolver header, a retry ordinal.
	Detail string `json:"detail,omitempty"`
	// Err is the failure that ended the span, empty on success.
	Err string `json:"err,omitempty"`
}

// Span stages. The spellings match the stage label values on the /metrics
// latency histograms, so a dashboard quantile and a trace span with the
// same name measure the same interval.
const (
	// SpanServer is one proxy's whole handling of an incoming request.
	SpanServer = "server"
	// SpanGateWait is time queued at the admission gate.
	SpanGateWait = "gate_wait"
	// SpanFlightWait is a coalesced miss waiting on another request's
	// in-flight fetch.
	SpanFlightWait = "flight_wait"
	// SpanForward is one upstream fetch to a peer proxy.
	SpanForward = "forward"
	// SpanOrigin is one fetch to the origin server.
	SpanOrigin = "origin"
	// SpanBreakerDenied is a fetch refused locally because the health
	// monitor holds the peer down (zero-duration; recorded so the refusal
	// shows up in the tree).
	SpanBreakerDenied = "breaker_denied"
)

// SpanRing buffers the most recent spans of one proxy, dropping the oldest
// when full. Every proxy exposes its ring at /debug/trace; a bounded buffer
// keeps a long-lived proxy's memory flat while holding comfortably more
// than one load-test run's sampled spans (the default ring remembers the
// last 16Ki spans ≈ a few MB).
type SpanRing struct {
	mu  sync.Mutex
	buf []Span
	n   uint64 // total spans ever added
}

// DefaultSpanRingSize is the ring capacity when none is configured.
const DefaultSpanRingSize = 16384

// NewSpanRing returns a ring holding up to capacity spans
// (DefaultSpanRingSize when capacity <= 0).
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultSpanRingSize
	}
	return &SpanRing{buf: make([]Span, 0, capacity)}
}

// Add records one finished span. Safe on a nil ring, which is the
// tracing-disabled state and records nothing.
func (r *SpanRing) Add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.n%uint64(cap(r.buf))] = s
	}
	r.n++
	r.mu.Unlock()
}

// Len returns the number of buffered spans.
func (r *SpanRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many spans the ring has evicted to stay bounded.
func (r *SpanRing) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if uint64(cap(r.buf)) >= r.n {
		return 0
	}
	return r.n - uint64(cap(r.buf))
}

// Snapshot returns the buffered spans oldest-first.
func (r *SpanRing) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	head := int(r.n % uint64(cap(r.buf))) // oldest surviving span
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}

// SpanDump is one proxy's /debug/trace response: its ring contents plus the
// clock reading the skew aligner needs. A scraper fills ScrapedUs with the
// midpoint of its own request so MergeDumps can shift every proxy's spans
// onto the scraper's clock.
type SpanDump struct {
	// Proxy is the recording proxy's name (e.g. "Proxy[3]").
	Proxy string `json:"proxy"`
	// Node is the recording proxy's index.
	Node int32 `json:"node"`
	// NowUs is the proxy's clock, unix microseconds, at snapshot time.
	NowUs int64 `json:"now_us"`
	// ScrapedUs is the scraper's clock at the scrape midpoint (set by the
	// scraper, not the proxy; 0 means "no alignment", e.g. a dump taken
	// in-process where every proxy shares one clock).
	ScrapedUs int64 `json:"scraped_us,omitempty"`
	// Dropped is how many spans the ring evicted before this snapshot.
	Dropped uint64 `json:"dropped"`
	// Spans is the ring's contents, oldest-first.
	Spans []Span `json:"spans"`
}
