package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
)

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
// them across proxies before tree building. EventSpans recasts an event
// trace as spans timed by Event.Time, so both trace models share one tree
// builder, census, printer and Chrome exporter.
type Span struct {
	// Trace groups every span of one logical request.
	Trace uint64 `json:"trace"`
	// ID is unique within the trace (the recording proxy's index sits in
	// the top bits, so two proxies never collide).
	ID uint64 `json:"id"`
	// Parent is the enclosing span's ID; 0 marks the trace root.
	Parent uint64 `json:"parent,omitempty"`
	// Node is the recording node, a raw ids.NodeID: a proxy's index on the
	// farm; a client, proxy or the origin in an event trace (EventSpans).
	Node int32 `json:"node"`
	// Stage names what the span timed: a metrics.Stage name or
	// SpanPeerDownRefusal on the farm; SpanAttempt or an event kind name
	// in EventSpans.
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

// SpanPeerDownRefusal is the stage of a farm fetch refused locally because
// the health monitor holds the peer down (zero-duration; recorded so the
// refusal shows up in the tree). The farm's other span stages are
// metrics.Stage names.
const SpanPeerDownRefusal = "peer_down_refusal"

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

// WriteSpanDumps writes dumps as one JSON array, the trace file cmd/adctrace
// reads, from adcload -trace-dump (one dump per proxy) and from adcsim
// -trace (one dump of EventSpans). Each dump's header is encoded whole and
// its spans one per line (appendSpan, byte for byte a json.Encoder's line),
// so writing holds one span's encoding at a time instead of the whole
// document's.
func WriteSpanDumps(w io.Writer, dumps []SpanDump) error {
	bw := bufio.NewWriter(w) // its write error sticks; Flush returns it
	var line []byte
	bw.WriteByte('[')
	for i, d := range dumps {
		if i > 0 {
			bw.WriteByte(',')
		}
		spans := d.Spans
		d.Spans = []Span{}
		head, err := json.Marshal(d)
		if err != nil {
			return err
		}
		bw.Write(head[:len(head)-len("]}")]) // Spans is the last field: up to its '['
		for j := range spans {
			if j > 0 {
				bw.WriteByte(',')
			}
			line = append(appendSpan(line[:0], &spans[j]), '\n')
			bw.Write(line)
		}
		bw.WriteString("]}")
	}
	bw.WriteString("]\n")
	return bw.Flush()
}

// ReadSpanDumps reads what WriteSpanDumps writes, a JSON array of dumps, or
// one bare dump (a saved /debug/trace response). It decodes one span at a
// time, so reading holds the decoded dumps and one span's encoding, never
// the whole document.
func ReadSpanDumps(r io.Reader) ([]SpanDump, error) {
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if tok == json.Delim('{') {
		var d SpanDump
		if err := readSpanDump(dec, &d); err != nil {
			return nil, err
		}
		return []SpanDump{d}, nil
	}
	if tok != json.Delim('[') {
		return nil, fmt.Errorf("obs: span dumps: want an array or an object, got %v", tok)
	}
	var dumps []SpanDump
	for dec.More() {
		var d SpanDump
		if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
			return nil, fmt.Errorf("obs: span dumps: want a dump object, got %v (%v)", tok, err)
		}
		if err := readSpanDump(dec, &d); err != nil {
			return nil, err
		}
		dumps = append(dumps, d)
	}
	_, err = dec.Token() // the array's ']'
	return dumps, err
}

// readSpanDump reads the members of one dump object, its '{' already
// consumed, into d: the spans one by one, every other member through
// SpanDump's own JSON decoding.
func readSpanDump(dec *json.Decoder, d *SpanDump) error {
	// A few stage names and details recur across every span: keep one
	// copy of each, not one per span.
	strs := map[string]string{}
	intern := func(s string) string {
		if c, ok := strs[s]; ok {
			return c
		}
		strs[s] = s
		return s
	}
	head := []byte{'{'}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		key, _ := tok.(string)
		if key != "spans" {
			var v json.RawMessage
			if err := dec.Decode(&v); err != nil {
				return err
			}
			if len(head) > 1 {
				head = append(head, ',')
			}
			name, _ := json.Marshal(key)
			head = append(append(append(head, name...), ':'), v...)
			continue
		}
		if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
			return fmt.Errorf("obs: span dump: want a spans array, got %v (%v)", tok, err)
		}
		// The spans are read into fixed-size chunks and joined once: one
		// appended slice would copy itself into fresh memory at every
		// growth, and its outgrown arrays add up to several times the
		// last one.
		var chunks [][]Span
		for dec.More() {
			if len(chunks) == 0 || len(chunks[len(chunks)-1]) == spanChunk {
				chunks = append(chunks, make([]Span, 0, spanChunk))
			}
			c := &chunks[len(chunks)-1]
			*c = append(*c, Span{})
			s := &(*c)[len(*c)-1]
			if err := dec.Decode(s); err != nil {
				return err
			}
			s.Stage, s.Detail = intern(s.Stage), intern(s.Detail)
		}
		d.Spans = slices.Concat(chunks...)
		if _, err := dec.Token(); err != nil { // the spans' ']'
			return err
		}
	}
	if _, err := dec.Token(); err != nil { // the dump's '}'
		return err
	}
	return json.Unmarshal(append(head, '}'), d)
}

// spanChunk is how many spans ReadSpanDumps decodes into one array.
const spanChunk = 4096
