package httpproxy

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/ids"
)

// countingListener counts the connections its server accepts.
type countingListener struct {
	net.Listener
	accepts *atomic.Int32
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// startServer serves h on a loopback port. tweak, if not nil, adjusts
// the server's limits before it starts.
func startServer(t *testing.T, h http.HandlerFunc, tweak func(*server)) (*server, string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int32
	s := newServer(countingListener{ln, &accepts}, h)
	if tweak != nil {
		tweak(s)
	}
	go s.serve()
	t.Cleanup(func() { _ = s.Close() })
	return s, ln.Addr().String(), &accepts
}

// rawConn is a client connection that writes requests by hand.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (c *rawConn) send(s string) {
	c.t.Helper()
	if _, err := io.WriteString(c.nc, s); err != nil {
		c.t.Fatal(err)
	}
}

// reply reads one reply to a method request, body included.
func (c *rawConn) reply(method string) (*http.Response, string) {
	c.t.Helper()
	resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
	if err != nil {
		c.t.Fatalf("reading the reply: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("reading the reply body: %v", err)
	}
	return resp, string(body)
}

// closed reports whether the server has closed the connection: a read
// ends in EOF or a reset, not in the deadline.
func (c *rawConn) closed() bool {
	c.t.Helper()
	_, err := c.br.ReadByte()
	if err == nil {
		c.t.Fatal("unexpected byte after the reply")
	}
	return !isTimeout(err)
}

func get(path string) string { return "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n" }

func echoPath(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, r.URL.Path) }

// TestServerReusesConnection: keep-alive requests share one connection.
func TestServerReusesConnection(t *testing.T) {
	const n = 5
	_, addr, accepts := startServer(t, echoPath, nil)
	tr := NewTransport()
	for i := 0; i < n; i++ {
		body, err := transportGet(context.Background(), tr, "http://"+addr+"/r"+strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := "/r" + strconv.Itoa(i); body != want {
			t.Errorf("request %d: body %q, want %q", i, body, want)
		}
	}
	if got := accepts.Load(); got != 1 {
		t.Errorf("%d requests opened %d connections, want 1", n, got)
	}
}

// TestServerClosesConnection: HTTP/1.0, and Connection: close from the
// request or from the handler, close the connection after the reply.
func TestServerClosesConnection(t *testing.T) {
	_, addr, _ := startServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/bye" {
			w.Header().Set("Connection", "close")
		}
		_, _ = io.WriteString(w, "ok")
	}, nil)
	for _, tc := range []struct{ name, req string }{
		{"http/1.0", "GET / HTTP/1.0\r\n\r\n"},
		{"request close", "GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"},
		{"handler close", get("/bye")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialRaw(t, addr)
			c.send(tc.req)
			resp, body := c.reply(http.MethodGet)
			if resp.StatusCode != http.StatusOK || body != "ok" {
				t.Fatalf("reply %d %q, want 200 \"ok\"", resp.StatusCode, body)
			}
			if !resp.Close {
				t.Error("the reply does not say the connection closes")
			}
			if !c.closed() {
				t.Error("connection left open")
			}
		})
	}
}

// TestServerHeaderDeadline: a header that stalls is cut at the deadline,
// but a keep-alive connection idle for longer is not.
func TestServerHeaderDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	_, addr, _ := startServer(t, echoPath, func(s *server) { s.headerTimeout = timeout })

	slow := dialRaw(t, addr)
	slow.send("GET /slow HTTP/1.1\r\nHost: x\r\n")
	start := time.Now()
	if !slow.closed() {
		t.Error("a stalled header was not cut")
	}
	if d := time.Since(start); d > 20*timeout {
		t.Errorf("stalled header cut after %v, deadline %v", d, timeout)
	}

	idle := dialRaw(t, addr)
	idle.send(get("/first"))
	if _, body := idle.reply(http.MethodGet); body != "/first" {
		t.Fatalf("first reply %q", body)
	}
	time.Sleep(5 * timeout)
	idle.send(get("/second"))
	if _, body := idle.reply(http.MethodGet); body != "/second" {
		t.Errorf("after %v idle: reply %q, want /second", 5*timeout, body)
	}
}

// TestServerRefusesBadHeaders: a header over the cap gets 431, an
// HTTP/1.1 request without Host 400, and both close the connection.
func TestServerRefusesBadHeaders(t *testing.T) {
	const maxHeader = 1 << 10
	_, addr, _ := startServer(t, echoPath, func(s *server) { s.maxHeaderBytes = maxHeader })
	big := "GET / HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("b", maxHeader+2*headerReadSlack+4096) + "\r\n\r\n"
	for _, tc := range []struct {
		name, req string
		status    int
	}{
		{"oversized", big, http.StatusRequestHeaderFieldsTooLarge},
		{"no host", "GET / HTTP/1.1\r\n\r\n", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialRaw(t, addr)
			c.send(tc.req)
			if resp, body := c.reply(http.MethodGet); resp.StatusCode != tc.status {
				t.Errorf("status %d (%q), want %d", resp.StatusCode, body, tc.status)
			}
			if !c.closed() {
				t.Error("connection left open")
			}
		})
	}
}

// TestServerPipelining: two requests in one write are answered in order
// on the same connection.
func TestServerPipelining(t *testing.T) {
	_, addr, _ := startServer(t, echoPath, nil)
	c := dialRaw(t, addr)
	c.send(get("/one") + get("/two"))
	for _, want := range []string{"/one", "/two"} {
		if _, body := c.reply(http.MethodGet); body != want {
			t.Errorf("reply %q, want %q", body, want)
		}
	}
}

// TestServerReplyFraming: a reply that fits the buffer carries
// Content-Length, a longer one arrives chunked and intact, HEAD has no
// body, and Content-Type is sniffed only when the handler sets none.
func TestServerReplyFraming(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 4<<10) // 64 KB
	small := strings.Repeat("x", 40)
	_, addr, _ := startServer(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/big":
			for off := 0; off < len(big); off += 1000 { // writes that straddle chunks
				_, _ = w.Write(big[off:min(off+1000, len(big))])
			}
		case "/typed":
			w.Header().Set("Content-Type", "application/x-adc")
			_, _ = io.WriteString(w, small)
		default:
			_, _ = io.WriteString(w, small)
		}
	}, nil)
	c := dialRaw(t, addr)

	c.send(get("/big"))
	resp, body := c.reply(http.MethodGet)
	if len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Errorf("64 KB reply: Transfer-Encoding %v, want chunked", resp.TransferEncoding)
	}
	if body != string(big) {
		t.Errorf("64 KB reply: %d bytes arrived, not the %d written", len(body), len(big))
	}

	c.send(get("/small"))
	resp, body = c.reply(http.MethodGet)
	if resp.ContentLength != 40 || body != small {
		t.Errorf("40-byte reply: Content-Length %d, body %q", resp.ContentLength, body)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/plain; charset=utf-8" {
		t.Errorf("sniffed Content-Type %q", got)
	}
	if resp.Header.Get("Date") == "" {
		t.Error("no Date")
	}

	c.send(get("/typed"))
	if resp, _ := c.reply(http.MethodGet); resp.Header.Get("Content-Type") != "application/x-adc" {
		t.Errorf("handler's Content-Type replaced by %q", resp.Header.Get("Content-Type"))
	}

	// Read by hand: a reply to HEAD that carried a body would show up as
	// bytes before the next reply.
	c.send("HEAD /small HTTP/1.1\r\nHost: x\r\n\r\n" + get("/small"))
	resp, _ = c.reply(http.MethodHead)
	if resp.ContentLength != 40 {
		t.Errorf("HEAD: Content-Length %d, want the GET's 40", resp.ContentLength)
	}
	if _, body := c.reply(http.MethodGet); body != small {
		t.Errorf("reply after HEAD: %q, want %q (a HEAD body leaked into it)", body, small)
	}
}

// TestServerDrainsRequestBody: a request body the handler leaves unread,
// or closes unread, is drained so the connection carries the next request,
// unless it is over maxDrainBytes; then the connection closes. A read
// after Close fails as it does under net/http.
func TestServerDrainsRequestBody(t *testing.T) {
	_, addr, _ := startServer(t, echoPath, nil)
	post := func(n int) string {
		return "POST /p HTTP/1.1\r\nHost: x\r\nContent-Length: " + strconv.Itoa(n) + "\r\n\r\n" + strings.Repeat("b", n)
	}
	c := dialRaw(t, addr)
	c.send(post(maxDrainBytes / 2))
	c.reply(http.MethodPost)
	c.send(get("/next"))
	if _, body := c.reply(http.MethodGet); body != "/next" {
		t.Errorf("after a drained body: reply %q, want /next", body)
	}

	_, closeAddr, _ := startServer(t, func(w http.ResponseWriter, r *http.Request) {
		_ = r.Body.Close()
		if _, err := r.Body.Read(make([]byte, 1)); err != http.ErrBodyReadAfterClose {
			w.WriteHeader(http.StatusInternalServerError)
		}
		echoPath(w, r)
	}, nil)
	c = dialRaw(t, closeAddr)
	c.send(post(64))
	if resp, body := c.reply(http.MethodPost); resp.StatusCode != http.StatusOK || body != "/p" {
		t.Errorf("reading a closed body: status %d, reply %q; want 200 and /p", resp.StatusCode, body)
	}
	c.send(get("/next"))
	if _, body := c.reply(http.MethodGet); body != "/next" {
		t.Errorf("after a closed body: reply %q, want /next", body)
	}

	c = dialRaw(t, addr)
	go func() { _, _ = io.WriteString(c.nc, post(2*maxDrainBytes)) }() // the server stops reading part way
	if resp, _ := c.reply(http.MethodPost); !resp.Close {
		t.Error("over the drain limit: the reply does not say the connection closes")
	}
	if !c.closed() {
		t.Error("connection left open after an undrained body")
	}
}

// TestServerShutdown: Shutdown answers the request in flight, closes an
// idle connection at once and refuses new ones; Close cuts a request in
// flight.
func TestServerShutdown(t *testing.T) {
	started := make(chan struct{}, 1)
	slow := func(release chan struct{}) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/slow" {
				started <- struct{}{}
				<-release
			}
			_, _ = io.WriteString(w, r.URL.Path)
		}
	}
	release := make(chan struct{})
	s, addr, _ := startServer(t, slow(release), nil)
	idle := dialRaw(t, addr)
	idle.send(get("/warm"))
	idle.reply(http.MethodGet)
	busy := dialRaw(t, addr)
	busy.send(get("/slow"))
	<-started

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	if !idle.closed() {
		t.Error("idle connection not closed by Shutdown")
	}
	if nc, err := net.Dial("tcp", addr); err == nil {
		nc.Close()
		t.Error("a new connection was accepted during Shutdown")
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) with a request in flight", err)
	default:
	}
	close(release)
	resp, body := busy.reply(http.MethodGet)
	if body != "/slow" || !resp.Close {
		t.Errorf("in-flight reply %q (Connection: close %v), want /slow and close", body, resp.Close)
	}
	if !busy.closed() {
		t.Error("connection left open after its reply")
	}
	if err := <-done; err != nil {
		t.Errorf("Shutdown: %v", err)
	}

	never := make(chan struct{})
	defer close(never)
	s, addr, _ = startServer(t, slow(never), nil)
	busy = dialRaw(t, addr)
	busy.send(get("/slow"))
	<-started
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !busy.closed() {
		t.Error("Close left a request in flight")
	}
}

// syncBuffer is a bytes.Buffer safe to write from a server goroutine
// while a test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestServerRecoversHandlerPanic: a panic in a proxy's handler — here in
// the flight leader's upstream fetch — closes only its own connection and
// is logged unless it is http.ErrAbortHandler; the gate slot and the
// entries count are released, so the next request is served.
func TestServerRecoversHandlerPanic(t *testing.T) {
	var logs syncBuffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logs)

	type panicValue struct{ v any }
	var panicWith atomic.Pointer[panicValue] // nil: answer
	client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if pv := panicWith.Load(); pv != nil {
			panic(pv.v)
		}
		obj, err := parseObjectPath(r.URL.Path)
		if err != nil {
			return nil, err
		}
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{HeaderOrigin: {"1"}},
			Body:       io.NopCloser(bytes.NewReader(Payload(obj))),
		}, nil
	})}
	p := stormProxy(t, "http://127.0.0.1:1", Config{ID: 0, MaxActive: 1, MaxQueue: -1, Client: client})
	addr := strings.TrimPrefix(p.URL(), "http://")
	entry := func(obj ids.ObjectID, reqID string) string {
		return "GET " + ObjectURL("", obj) + " HTTP/1.1\r\nHost: x\r\n" + HeaderRequestID + ": " + reqID + "\r\n\r\n"
	}

	bystander := dialRaw(t, addr)
	bystander.send(get(healthzPath))
	if resp, _ := bystander.reply(http.MethodGet); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	for i, v := range []any{"boom", http.ErrAbortHandler} {
		panicWith.Store(&panicValue{v})
		c := dialRaw(t, addr)
		c.send(entry(ids.ObjectID(i+1), "panic-"+strconv.Itoa(i)))
		if !c.closed() {
			t.Errorf("panic %v: connection not closed", v)
		}
	}
	if got := logs.String(); !strings.Contains(got, "panic serving") || !strings.Contains(got, "boom") {
		t.Errorf("the panic was not logged: %q", got)
	} else if strings.Contains(got, http.ErrAbortHandler.Error()) {
		t.Errorf("http.ErrAbortHandler was logged: %q", got)
	}

	bystander.send(get(healthzPath))
	if resp, _ := bystander.reply(http.MethodGet); resp.StatusCode != http.StatusOK {
		t.Errorf("another connection after the panics: healthz %d", resp.StatusCode)
	}
	panicWith.Store(nil)
	c := dialRaw(t, addr)
	c.send(entry(7, "after"))
	if resp, body := c.reply(http.MethodGet); resp.StatusCode != http.StatusOK || body != string(Payload(7)) {
		t.Errorf("after the panics: %d %q, want the payload (a leaked gate slot sheds it)", resp.StatusCode, body)
	}
	if n := p.entries.Load(); n != 0 {
		t.Errorf("entries = %d after every request ended, want 0", n)
	}
}

// inputConn is the server's end of a net.Pipe whose reads come from a
// fixed input instead: the server reads the input, then EOF, and its
// replies go through the pipe.
type inputConn struct {
	net.Conn
	r io.Reader
}

func (c inputConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// FuzzServeConn feeds arbitrary bytes to one connection's loop. The loop
// must not panic and must end; every reply must parse; and it may answer
// at most one request it did not hand to the handler: the one it refuses
// before closing.
func FuzzServeConn(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var methods []string // of the requests the handler saw, in order
		s := newServer(nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			methods = append(methods, r.Method)
			_, _ = io.CopyN(io.Discard, r.Body, 16)
			if len(r.URL.Path) > 8 {
				_, _ = w.Write(bytes.Repeat([]byte("x"), 3*replyBufferSize/2))
				return
			}
			_, _ = io.WriteString(w, "ok")
		}))
		s.maxHeaderBytes = 1 << 10
		srvEnd, cliEnd := net.Pipe()
		out := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(cliEnd)
			out <- b
		}()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.newConn(inputConn{srvEnd, bytes.NewReader(in)}).serve()
		}()
		timer := time.NewTimer(10 * time.Second)
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			t.Fatal("the connection loop did not end")
		}
		replies := bufio.NewReader(bytes.NewReader(<-out))
		n := 0
		for ; ; n++ {
			if _, err := replies.Peek(1); errors.Is(err, io.EOF) {
				break
			}
			method := http.MethodGet
			if n < len(methods) {
				method = methods[n]
			}
			resp, err := http.ReadResponse(replies, &http.Request{Method: method})
			if err != nil {
				t.Fatalf("reply %d does not parse: %v", n, err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("reply %d: body: %v", n, err)
			}
			if n >= len(methods) && resp.StatusCode < http.StatusBadRequest {
				t.Fatalf("reply %d is %d, but the handler saw %d requests", n, resp.StatusCode, len(methods))
			}
		}
		if n > len(methods)+1 {
			t.Fatalf("%d replies to %d handled requests", n, len(methods))
		}
	})
}
