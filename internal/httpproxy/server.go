package httpproxy

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The server half of every farm round trip. net/http's Server starts a
// background-read goroutine on the connection for each body-less request,
// so that a client hanging up cancels the request's context, and when the
// handler returns it aborts that read by moving the read deadline into
// the past and waiting for the goroutine. No handler in this package
// watches r.Context() for a disconnect, so server below does without it.
// Each accepted connection gets one goroutine that reads a request with
// net/http's own http.ReadRequest, runs the handler, writes the reply
// with http.Header.Write and flushes once, then waits for the next
// request. It keeps what the farm relied on http.Server for:
//
//   - a header deadline from the request's first byte (and one from
//     accept for that byte, on a new connection; an idle keep-alive
//     connection waits without one), a header size cap answered with
//     431, and 400 for HTTP/1.1 without Host;
//   - keep-alive unless the request is HTTP/1.0 or either side says
//     Connection: close; a request body the handler left unread is
//     drained up to maxDrainBytes, and a longer one closes the connection;
//   - Content-Length on a reply that fits replyBufferSize whole, chunked
//     past it; no body for HEAD, 204 or 304; Content-Type sniffed when
//     unset; Date;
//   - a handler panic is logged (unless it is http.ErrAbortHandler) and
//     closes that connection only;
//   - Shutdown and Close with http.Server's meaning.
//
// It does not support what nothing here uses: HTTP/2, Expect:
// 100-continue, HTTP/1.0 keep-alive, a handler's own Content-Length, and
// the Flusher and Hijacker interfaces.

const (
	// serverHeaderTimeout bounds the read of one request header.
	serverHeaderTimeout = 5 * time.Second
	// replyBufferSize is net/http's bufferBeforeChunkingSize: the reply
	// bytes held back before the header is written. A reply that fits is
	// sent with Content-Length (every /obj/ reply does); a longer one is
	// chunked, so it streams in bounded memory.
	replyBufferSize = 2048
	// maxDrainBytes is net/http's maxPostHandlerReadBytes: the most of a
	// request body left unread by the handler that is read to keep the
	// connection.
	maxDrainBytes = 256 << 10
	// headerReadSlack is read beyond the header cap before a request is
	// refused: what one bufio fill may take past the header's end.
	headerReadSlack = 4096
	// rstAvoidanceDelay is how long a connection refused with request
	// bytes still unread stays half-closed, so that the client reads the
	// reply before the close resets the connection (net/http's value).
	rstAvoidanceDelay = 500 * time.Millisecond
)

// server is a synchronous HTTP/1.1 keep-alive server on one listener.
type server struct {
	ln      net.Listener
	handler http.Handler
	// Limits; newServer sets them from the package constants.
	headerTimeout  time.Duration
	maxHeaderBytes int

	shutting atomic.Bool // set by Shutdown or Close; never cleared
	mu       sync.Mutex
	conns    map[*serverConn]struct{}
	drained  chan struct{} // closed once shutting and no connection is left
}

// newServer returns a server for h on ln; serve starts it.
func newServer(ln net.Listener, h http.Handler) *server {
	return &server{
		ln:             ln,
		handler:        h,
		headerTimeout:  serverHeaderTimeout,
		maxHeaderBytes: http.DefaultMaxHeaderBytes,
		conns:          make(map[*serverConn]struct{}),
		drained:        make(chan struct{}),
	}
}

// serve accepts connections until the listener is closed, serving each
// on its own goroutine.
func (s *server) serve() {
	var delay time.Duration
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.shutting.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Out of file descriptors and the like: back off as
			// net/http does, and try again.
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			log.Printf("httpproxy: accept: %v; retrying in %v", err, delay)
			time.Sleep(delay)
			continue
		}
		delay = 0
		c := s.newConn(nc)
		s.mu.Lock()
		if s.shutting.Load() {
			s.mu.Unlock()
			nc.Close() //nolint:errcheck // accepted after the listener was closed
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go func() {
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.checkDrainedLocked()
			s.mu.Unlock()
		}()
	}
}

// Shutdown closes the listener and the idle connections, then waits
// until each active connection has written its reply and closed, or ctx
// is done.
func (s *server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	err := s.stopLocked()
	for c := range s.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			c.nc.Close() //nolint:errcheck // idle: nothing in flight
		}
	}
	s.checkDrainedLocked()
	s.mu.Unlock()
	select {
	case <-s.drained:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close closes the listener and every connection, cutting the requests
// in flight.
func (s *server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.stopLocked()
	for c := range s.conns {
		c.state.Store(connClosed)
		c.nc.Close() //nolint:errcheck // cut on purpose
	}
	return err
}

// stopLocked sets shutting and closes the listener, the first time only.
func (s *server) stopLocked() error {
	if s.shutting.Swap(true) {
		return nil
	}
	return s.ln.Close()
}

func (s *server) checkDrainedLocked() {
	if !s.shutting.Load() || len(s.conns) > 0 {
		return
	}
	select {
	case <-s.drained:
	default:
		close(s.drained)
	}
}

// Connection states. Shutdown closes a connection only by moving it from
// connIdle to connClosed, and the connection's goroutine serves a request
// only by moving it from connIdle to connActive, so a request that has
// begun is never cut by Shutdown.
const (
	connIdle   int32 = iota // waiting for a request's first byte
	connActive              // reading a request, handling it or replying
	connClosed              // claimed by Shutdown or Close
)

// serverConn is one accepted connection and the reply state it reuses.
type serverConn struct {
	s          *server
	nc         net.Conn
	state      atomic.Int32
	lr         limitReader
	br         *bufio.Reader
	bw         *bufio.Writer
	remoteAddr string
	res        response
	scratch    [20]byte // for formatting numbers
	dateSec    int64    // the second date was formatted for
	date       string
}

func (s *server) newConn(nc net.Conn) *serverConn {
	c := &serverConn{s: s, nc: nc, remoteAddr: nc.RemoteAddr().String()}
	c.lr = limitReader{r: nc, remain: math.MaxInt64}
	c.br = bufio.NewReader(&c.lr)
	c.bw = bufio.NewWriter(nc)
	c.res = response{c: c, header: make(http.Header), buf: make([]byte, 0, replyBufferSize)}
	return c
}

// serve is the connection's loop: one request at a time, until the
// connection closes or a reply says it must.
func (c *serverConn) serve() {
	defer func() {
		if v := recover(); v != nil && v != http.ErrAbortHandler {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			log.Printf("httpproxy: panic serving %s: %v\n%s", c.remoteAddr, v, buf)
		}
		c.nc.Close() //nolint:errcheck // the loop is over
	}()
	// A new connection has headerTimeout to send its first byte, as under
	// net/http; an idle keep-alive connection waits without a deadline.
	if c.nc.SetReadDeadline(time.Now().Add(c.s.headerTimeout)) != nil {
		return
	}
	for {
		if _, err := c.br.Peek(1); err != nil {
			return
		}
		if !c.state.CompareAndSwap(connIdle, connActive) {
			return // Shutdown claimed the connection
		}
		if !c.serveRequest() {
			return
		}
		c.state.Store(connIdle)
		if c.s.shutting.Load() {
			return // Shutdown may have passed this connection by while active
		}
	}
}

// serveRequest reads one request, runs the handler and writes the reply.
// It reports whether the connection may carry another request.
func (c *serverConn) serveRequest() bool {
	if c.nc.SetReadDeadline(time.Now().Add(c.s.headerTimeout)) != nil {
		return false
	}
	c.lr.remain = int64(c.s.maxHeaderBytes) + headerReadSlack
	req, err := http.ReadRequest(c.br)
	tooLarge := c.lr.remain <= 0
	c.lr.remain = math.MaxInt64
	switch {
	case err != nil && tooLarge:
		c.refuse(http.StatusRequestHeaderFieldsTooLarge, "")
		c.closeWriteAndWait()
		return false
	case err != nil && isNetReadError(err):
		return false // the client went away or stalled: nobody to answer
	case err != nil:
		c.refuse(http.StatusBadRequest, "")
		return false
	case req.ProtoMajor != 1:
		c.refuse(http.StatusHTTPVersionNotSupported, "unsupported protocol version")
		return false
	case req.ProtoAtLeast(1, 1) && req.Host == "":
		c.refuse(http.StatusBadRequest, "missing required Host header")
		return false
	}
	// The body, if any, is read without a deadline, as net/http's is.
	if c.nc.SetReadDeadline(time.Time{}) != nil {
		return false
	}
	req.RemoteAddr = c.remoteAddr
	w := &c.res
	w.reset(req)
	c.s.handler.ServeHTTP(w, req)
	keep := w.finish()
	if w.linger {
		c.closeWriteAndWait()
	}
	return keep
}

// refuse answers a request that is not served and closes the connection,
// in net/http's words.
func (c *serverConn) refuse(code int, detail string) {
	msg := strconv.Itoa(code) + " " + http.StatusText(code)
	if detail != "" {
		msg += ": " + detail
	}
	_, _ = c.bw.WriteString("HTTP/1.1 " + msg +
		"\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: " + strconv.Itoa(len(msg)) +
		"\r\nConnection: close\r\n\r\n" + msg)
	_ = c.bw.Flush() // the connection closes either way
}

// closeWriteAndWait half-closes a connection whose client may still be
// sending, and gives the reply time to be read before the full close.
func (c *serverConn) closeWriteAndWait() {
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		time.Sleep(rstAvoidanceDelay)
	}
}

// dateValue is the Date header's value, formatted once a second.
func (c *serverConn) dateValue() string {
	now := time.Now()
	if sec := now.Unix(); sec != c.dateSec || c.date == "" {
		c.dateSec, c.date = sec, now.UTC().Format(http.TimeFormat)
	}
	return c.date
}

// isNetReadError reports a read that failed because the connection did:
// closed, reset or past its deadline.
func isNetReadError(err error) bool {
	if err == io.EOF {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "read"
}

// limitReader caps what a request header may read off the connection:
// past remain bytes it reports EOF, and remain <= 0 tells the caller why.
type limitReader struct {
	r      io.Reader
	remain int64
}

func (l *limitReader) Read(p []byte) (int, error) {
	if l.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > l.remain {
		p = p[:l.remain]
	}
	n, err := l.r.Read(p)
	l.remain -= int64(n)
	return n, err
}

// response is a connection's http.ResponseWriter, reset for each
// request. The reply's header is written when the handler returns, or
// earlier, once the body outgrows replyBufferSize. The server frames the
// body itself: a Content-Length or Transfer-Encoding the handler sets is
// replaced.
type response struct {
	c      *serverConn
	req    *http.Request
	header http.Header
	status int    // 0 until WriteHeader
	buf    []byte // body bytes held back until the header is written

	committed bool  // the header is written
	sendBody  bool  // the reply carries a body: not HEAD, 204, 304 or 1xx
	chunked   bool  // the body is chunked
	close     bool  // close the connection after this reply
	linger    bool  // ...after a half-close: request bytes are left unread
	err       error // the first write error
}

func (w *response) reset(req *http.Request) {
	clear(w.header)
	*w = response{c: w.c, req: req, header: w.header, buf: w.buf[:0]}
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.status != 0 {
		return // superfluous, as net/http treats it
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	w.status = code
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	n := len(p)
	if !w.committed {
		if len(w.buf)+len(p) <= replyBufferSize {
			w.buf = append(w.buf, p...)
			return n, nil
		}
		// Fill the buffer first, as a bufio.Writer would, so that the
		// Content-Type is sniffed from a full buffer.
		k := replyBufferSize - len(w.buf)
		w.buf, p = append(w.buf, p[:k]...), p[k:]
		w.commit(false)
	}
	if w.sendBody {
		w.send(p)
	}
	if w.err != nil {
		return 0, w.err
	}
	return n, nil
}

// finish completes the reply once the handler has returned and flushes
// it. It reports whether the connection may carry another request.
func (w *response) finish() bool {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !w.committed {
		w.commit(true)
	}
	if w.chunked {
		w.writeString("0\r\n\r\n")
	}
	if err := w.c.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err == nil && !w.close
}

// commit writes the status line, the header and the buffered body bytes.
// final is set when the handler has returned, so those bytes are the
// whole body.
func (w *response) commit(final bool) {
	w.committed = true
	c, h, req := w.c, w.header, w.req
	allowed := bodyAllowed(w.status)
	w.sendBody = allowed && req.Method != http.MethodHead
	// A reply to HEAD gives the GET's length when the handler wrote it.
	sized := final && allowed && (req.Method != http.MethodHead || len(w.buf) > 0)

	w.close = req.Close || !req.ProtoAtLeast(1, 1) || h.Get("Connection") == "close" || c.s.shutting.Load()
	if !w.close && req.ContentLength != 0 {
		w.close = !w.drain()
	}
	var ctype string
	if _, ok := h["Content-Type"]; !ok && allowed && h.Get("Content-Encoding") == "" && len(w.buf) > 0 {
		ctype = http.DetectContentType(w.buf)
	}
	if w.status == http.StatusNotModified {
		delete(h, "Content-Type")
	}
	delete(h, "Content-Length")
	delete(h, "Transfer-Encoding")
	switch {
	case !w.sendBody || sized:
	case req.ProtoAtLeast(1, 1):
		w.chunked = true
	default:
		w.close = true // an HTTP/1.0 client reads to the close
	}
	closeHeader := w.close && h.Get("Connection") != "close"
	if closeHeader {
		delete(h, "Connection")
	}

	bw := c.bw
	_, _ = bw.WriteString("HTTP/1.1 ")
	_, _ = bw.Write(strconv.AppendInt(c.scratch[:0], int64(w.status), 10))
	_ = bw.WriteByte(' ')
	_, _ = bw.WriteString(http.StatusText(w.status))
	_, _ = bw.WriteString("\r\n")
	_ = h.Write(bw) // bufio's error is sticky: finish reports it
	if sized {
		_, _ = bw.WriteString("Content-Length: ")
		_, _ = bw.Write(strconv.AppendInt(c.scratch[:0], int64(len(w.buf)), 10))
		_, _ = bw.WriteString("\r\n")
	}
	if ctype != "" {
		_, _ = bw.WriteString("Content-Type: " + ctype + "\r\n")
	}
	if w.chunked {
		_, _ = bw.WriteString("Transfer-Encoding: chunked\r\n")
	}
	if closeHeader {
		_, _ = bw.WriteString("Connection: close\r\n")
	}
	if _, ok := h["Date"]; !ok {
		_, _ = bw.WriteString("Date: " + c.dateValue() + "\r\n")
	}
	_, _ = bw.WriteString("\r\n")
	if w.sendBody {
		w.send(w.buf)
	}
	w.buf = w.buf[:0]
}

// drain reads the rest of the request body so that the next request can
// be parsed, and reports whether it reached the end. A body longer than
// maxDrainBytes is left, and the connection closes after a half-close.
func (w *response) drain() bool {
	_, err := io.CopyN(io.Discard, w.req.Body, maxDrainBytes+1)
	switch {
	case err == io.EOF, errors.Is(err, http.ErrBodyReadAfterClose):
		return true
	case err == nil:
		w.linger = true
	}
	return false
}

// send writes body bytes once the header is written, each Write as one
// chunk when the body is chunked.
func (w *response) send(p []byte) {
	if len(p) == 0 {
		return
	}
	if w.chunked {
		w.write(strconv.AppendInt(w.c.scratch[:0], int64(len(p)), 16))
		w.writeString("\r\n")
	}
	w.write(p)
	if w.chunked {
		w.writeString("\r\n")
	}
}

func (w *response) write(p []byte) {
	if w.err == nil {
		_, w.err = w.c.bw.Write(p)
	}
}

func (w *response) writeString(s string) {
	if w.err == nil {
		_, w.err = w.c.bw.WriteString(s)
	}
}

// bodyAllowed reports whether a reply with this status may carry a body.
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}
