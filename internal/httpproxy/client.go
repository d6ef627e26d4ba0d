package httpproxy

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Every farm request is a chain of HTTP round trips — the client's GET,
// each forward and each origin fetch — so the client half of a round trip
// is paid about three times per request. net/http's Transport spends it on
// goroutine handoffs: it passes each request to a per-connection writer
// goroutine and receives the reply from a reader goroutine over channels,
// with a cancel context and a header timer besides. Transport below does
// the same exchange on the calling goroutine. It takes an idle keep-alive
// connection (or dials one), writes the request head with the farm's own
// codec (codec.go) into the connection's buffer and flushes once, and
// parses the reply's head with the same codec. The body streams straight
// off the connection, and once it has been read to EOF the connection
// goes back to its host's idle list. A request is vetted before any byte
// of it is written, as Request.Write and http.Transport vet one: a valid
// method, Host, request-URI and header fields, and no body, which no farm
// hop sends.
//
// Without a reader goroutine nothing notices a peer closing an idle
// connection, so the first write or read on a reused connection may fail
// with nothing received. A GET or HEAD without a body is then retried
// once, on a fresh dial; a failure on a fresh connection is returned as
// it is, so a dead peer's health record sees the same failure it would
// have without the pool.
//
// Nor does anything watch an idle connection for bytes its peer sends
// unasked. A connection is pooled only if its reply's body ended where
// the bytes read off it end, and its last read came back short of the
// buffer it was given (so nothing more was waiting then); bytes that
// arrive later would be read as the next request's reply. No server the
// farm talks to sends them.
//
// One Transport serves the whole process (sharedClient): proxy forwards,
// origin fetches, health probes, Farm.Get and cmd/adcload. Idle pools are
// sized for a fleet where any host may become the hot resolver, since
// ADC's learned routing funnels every proxy's misses into the same
// resolver; a pool of two, net/http's default, would redial on nearly
// every forward.

// Limits of the shared transport. Dial and header timeouts are granular:
// a dead peer fails fast at dial time, while a live peer serving a large
// body is never cut off mid-stream.
const (
	dialTimeout       = 2 * time.Second
	headerTimeout     = 10 * time.Second
	idleConnTimeout   = 90 * time.Second
	keepAlivePeriod   = 30 * time.Second
	maxIdlePerHost    = 512
	maxIdleConnsTotal = 2048
	// maxReplyHead caps a reply's head, as http.Transport's
	// MaxResponseHeaderBytes does (net/http's default is 10 MB; farm
	// reply heads are a few hundred bytes).
	maxReplyHead = 1 << 20
)

// Transport is a synchronous HTTP/1.1 keep-alive http.RoundTripper for
// plain-http URLs. It asks for no compression, honours Connection: close
// and the request context's deadline and cancellation, and is safe for
// concurrent use.
type Transport struct {
	dialer net.Dialer
	// dial opens a connection; NewTransport sets it to dialer.DialContext.
	// FuzzTransportConn replaces it with a net.Pipe.
	dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// Idle-pool caps; NewTransport sets them to the package limits.
	maxIdlePerHost, maxIdleTotal int

	mu sync.Mutex
	// Idle connections per host:port, the newest last. A host whose list
	// empties keeps its entry, so that pooling the next connection does
	// not allocate a list again.
	idle  map[string][]*persistConn
	nidle int
}

// NewTransport returns the transport used by everything in this package
// (proxy upstream fetches, health probes, the farm's client side) and by
// cmd/adcload. Sharing one pools connections to a hot resolver
// process-wide.
func NewTransport() *Transport {
	t := &Transport{
		dialer:         net.Dialer{Timeout: dialTimeout, KeepAlive: keepAlivePeriod},
		maxIdlePerHost: maxIdlePerHost,
		maxIdleTotal:   maxIdleConnsTotal,
		idle:           make(map[string][]*persistConn),
	}
	t.dial = t.dialer.DialContext
	return t
}

// NewClient wraps NewTransport in an http.Client. There is deliberately no
// overall client timeout: dial and header timeouts above bound every
// stalled phase individually, so a healthy long transfer is never aborted.
func NewClient() *http.Client {
	return &http.Client{Transport: NewTransport()}
}

// sharedClient is the package-default pooled client. Every proxy in a
// process and the farm's own client side reuse it, so settings cannot
// drift between the two and connections to a hot resolver are pooled
// process-wide.
var sharedClient = NewClient()

// persistConn is one keep-alive connection, owned by at most one round
// trip at a time.
type persistConn struct {
	nc     net.Conn
	rd     connReader // br's source
	br     *bufio.Reader
	bw     *bufio.Writer
	addr   string
	idleAt time.Time
	head   []byte   // the last reply head's bytes
	keys   []string // writeHeader's scratch
}

func newPersistConn(nc net.Conn, addr string) *persistConn {
	c := &persistConn{nc: nc, rd: connReader{Conn: nc}, bw: bufio.NewWriter(nc), addr: addr}
	c.br = bufio.NewReader(&c.rd)
	return c
}

// connReader is a connection's read side. full records whether its last
// read filled the buffer it was given, so that the peer may have sent
// more than was read.
type connReader struct {
	net.Conn
	full bool
}

func (r *connReader) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.full = n == len(p)
	return n, err
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL == nil {
		closeBody(req)
		return nil, errors.New("httpproxy: request has no URL")
	}
	if req.URL.Scheme != "http" {
		closeBody(req)
		return nil, fmt.Errorf("httpproxy: unsupported protocol scheme %q", req.URL.Scheme)
	}
	if req.URL.Host == "" {
		closeBody(req)
		return nil, errors.New("httpproxy: request URL has no host")
	}
	host, uri, err := checkRequest(req)
	if err != nil {
		closeBody(req)
		return nil, err
	}
	addr := req.URL.Host
	if req.URL.Port() == "" {
		addr = net.JoinHostPort(req.URL.Hostname(), "80")
	}
	ctx := req.Context()
	if c := t.takeIdle(addr); c != nil {
		resp, replied, err := t.exchange(ctx, c, req, host, uri)
		if err == nil || replied || !replayable(req) || ctx.Err() != nil || isTimeout(err) {
			return resp, err
		}
		// The peer closed the idle connection before this request reached
		// it: nothing was received, so sending again is safe.
	}
	nc, err := t.dial(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	resp, _, err := t.exchange(ctx, newPersistConn(nc, addr), req, host, uri)
	return resp, err
}

// exchange sends req on c and reads the reply's header. replied reports
// whether any reply byte arrived; until one has, a failure may be the
// peer's close of an idle connection. On error c is closed.
func (t *Transport) exchange(ctx context.Context, c *persistConn, req *http.Request, host, uri string) (*http.Response, bool, error) {
	// One deadline bounds the write and the wait for the header: the
	// header timeout, or the context's deadline if that comes first.
	ctxDeadline, hasDeadline := ctx.Deadline()
	deadline, headerBound := time.Now().Add(headerTimeout), true
	if hasDeadline && ctxDeadline.Before(deadline) {
		deadline, headerBound = ctxDeadline, false
	}
	if err := c.nc.SetDeadline(deadline); err != nil {
		c.nc.Close() //nolint:errcheck // the deadline error is the one returned
		return nil, false, err
	}
	// A cancellable context interrupts blocked I/O by moving the deadline
	// into the past. It is registered after the deadline above is set, so
	// that set cannot undo it; the body unregisters it once it is done.
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = c.nc.SetDeadline(time.Unix(1, 0)) })
	}
	replied := false
	fail := func(err error) (*http.Response, bool, error) {
		if stop != nil {
			stop()
		}
		c.nc.Close() //nolint:errcheck // the error being returned is the one that matters
		return nil, replied, ctxErr(ctx, err)
	}
	writeRequest(c.bw, req, host, uri, &c.keys)
	if err := c.bw.Flush(); err != nil {
		return fail(err)
	}
	if _, err := c.br.Peek(1); err != nil {
		if isTimeout(err) && headerBound {
			err = fmt.Errorf("httpproxy: no response header within %v: %w", headerTimeout, err)
		}
		return fail(err)
	}
	replied = true
	head, err := readHead(c.br, c.head, maxReplyHead)
	c.head = keepHead(head)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fail(err)
	}
	text := string(head)
	b := bodyPool.Get().(*body)
	resp := &b.resp
	vals := b.vals[:]
	if n := headLines(text); n > len(vals) {
		vals = make([]string, n)
	}
	b.br = c.br
	// On a failure from here on, b is left to the collector.
	if err := parseResponse(text, req.Method, resp, vals, &b.bodyReader); err != nil {
		return fail(err)
	}
	resp.Request = req
	// The body may take as long as it takes, within the context's
	// deadline. A cancellation that fired before this set is caught by
	// the ctx.Err check after it.
	var bodyDeadline time.Time
	if hasDeadline {
		bodyDeadline = ctxDeadline
	}
	if err := c.nc.SetDeadline(bodyDeadline); err != nil {
		return fail(err)
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	b.t, b.c, b.ctx, b.stop, b.keep = t, c, ctx, stop, !resp.Close && !req.Close
	if b.n == 0 {
		resp.Body = http.NoBody
		b.release(b.keep, io.EOF)
	} else {
		resp.Body = b
	}
	return resp, true, nil
}

// body is one round trip's reply: the body, read straight off its
// connection, in one allocation with the response and the backing of its
// header's values. At EOF it hands the connection back to the pool;
// closed early, or on a read error, it closes the connection, since the
// rest of the reply is still on it.
//
// Bodies come from bodyPool, and only the proxy's own upstream fetch
// hands one back (recycle): the response RoundTrip returns to any other
// caller is never reused. A body is not kept on its persistConn, whose
// EOF pools the connection for another round trip before the fetch has
// read the reply's head.
type body struct {
	bodyReader
	t    *Transport
	c    *persistConn // nil once released
	ctx  context.Context
	stop func() bool // unregisters the cancellation hook; nil if none
	keep bool        // pool the connection at EOF
	err  error       // what Read returns once c is released
	resp http.Response
	vals [8]string
}

var bodyPool = sync.Pool{New: func() any {
	b := &body{}
	b.resp.Header = make(http.Header, len(b.vals))
	return b
}}

// maxPooledFields bounds the header map a pooled body keeps: a reply with
// more fields than any farm hop sends is left to the collector.
const maxPooledFields = 32

var errBodyClosed = errors.New("httpproxy: read on closed response body")

func (b *body) Read(p []byte) (int, error) {
	if b.c == nil {
		return 0, b.err
	}
	n, err := b.bodyReader.Read(p)
	switch {
	case err == io.EOF:
		b.release(b.keep, err)
	case err != nil:
		err = ctxErr(b.ctx, err)
		b.release(false, err)
	}
	return n, err
}

// Close releases the connection without reading the rest of the body: a
// body not read to EOF is not worth draining, so the connection closes.
func (b *body) Close() error {
	if b.c != nil {
		b.release(false, errBodyClosed)
	}
	b.err = errBodyClosed
	return nil
}

func (b *body) release(keep bool, err error) {
	c := b.c
	b.c, b.err = nil, err
	if b.stop != nil && !b.stop() {
		keep = false // the hook has fired: the connection's deadline is spent
	}
	if keep {
		b.t.putIdle(c)
	} else {
		c.nc.Close() //nolint:errcheck // nothing is left to read from it
	}
}

// recycle clears b, keeping its header map's buckets, and hands it back
// to bodyPool once it has released its connection (read to EOF, failed or
// closed). Only Proxy.fetch calls it, after it has read the body, closed
// it and decoded the head: the response, its header and its body are
// then dead.
func (b *body) recycle() {
	h := b.resp.Header
	if b.c != nil || len(h) > maxPooledFields {
		return
	}
	clear(h)
	*b = body{resp: http.Response{Header: h}}
	bodyPool.Put(b)
}

// takeIdle pops host addr's most recently used idle connection. The
// newest being older than idleConnTimeout means every one under it is
// too, so the whole list is closed.
func (t *Transport) takeIdle(addr string) *persistConn {
	t.mu.Lock()
	list := t.idle[addr]
	if len(list) == 0 {
		t.mu.Unlock()
		return nil
	}
	c := list[len(list)-1]
	if time.Since(c.idleAt) < idleConnTimeout {
		list[len(list)-1] = nil
		t.idle[addr] = list[:len(list)-1]
		t.nidle--
		t.mu.Unlock()
		return c
	}
	delete(t.idle, addr)
	t.nidle -= len(list)
	t.mu.Unlock()
	for _, c := range list {
		c.nc.Close() //nolint:errcheck // expired idle connection
	}
	return nil
}

// putIdle pools c, or closes it when its host's list is full. At the
// total cap the oldest idle connection of any host makes room.
func (t *Transport) putIdle(c *persistConn) {
	if c.br.Buffered() > 0 || c.rd.full {
		c.nc.Close() //nolint:errcheck // bytes nobody asked for, or maybe some waiting: not reusable
		return
	}
	c.idleAt = time.Now()
	var evict *persistConn
	t.mu.Lock()
	list := t.idle[c.addr]
	if len(list) >= t.maxIdlePerHost {
		t.mu.Unlock()
		c.nc.Close() //nolint:errcheck // over the per-host cap
		return
	}
	if t.nidle >= t.maxIdleTotal {
		evict = t.popOldestLocked()
		list = t.idle[c.addr]
	}
	t.idle[c.addr] = append(list, c)
	t.nidle++
	t.mu.Unlock()
	if evict != nil {
		evict.nc.Close() //nolint:errcheck // over the total cap
	}
}

// popOldestLocked removes the least recently used idle connection. Each
// host's list is oldest first, so it heads one of them.
func (t *Transport) popOldestLocked() *persistConn {
	var oldest string
	for addr, list := range t.idle {
		if len(list) > 0 && (oldest == "" || list[0].idleAt.Before(t.idle[oldest][0].idleAt)) {
			oldest = addr
		}
	}
	if oldest == "" {
		return nil
	}
	list := t.idle[oldest]
	c := list[0]
	list[0] = nil
	t.idle[oldest] = list[1:]
	t.nidle--
	return c
}

// CloseIdleConnections closes every pooled connection; connections in use
// are unaffected. http.Client.CloseIdleConnections calls it.
func (t *Transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = make(map[string][]*persistConn)
	t.nidle = 0
	t.mu.Unlock()
	for _, list := range idle {
		for _, c := range list {
			c.nc.Close() //nolint:errcheck // idle, nothing in flight
		}
	}
}

// replayable reports whether req may be sent a second time: a GET or a
// HEAD (checkRequest has refused any request with a body).
func replayable(req *http.Request) bool {
	return req.Method == "" || req.Method == http.MethodGet || req.Method == http.MethodHead
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close() //nolint:errcheck // the request is being refused
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// ctxErr reports an I/O error that the request's context caused as the
// context's error: a cancelled request, or one past its deadline.
func ctxErr(ctx context.Context, err error) error {
	if e := ctx.Err(); e != nil {
		return e
	}
	if dl, ok := ctx.Deadline(); ok && isTimeout(err) && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return err
}
