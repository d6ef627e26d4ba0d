package httpproxy

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingServer is an httptest server that counts the connections it
// accepts.
func countingServer(t *testing.T, h http.HandlerFunc) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var accepts atomic.Int32
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepts.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &accepts
}

// transportGet sends a GET through tr and reads the body to its end.
func transportGet(ctx context.Context, tr *Transport, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	return string(body), nil
}

// idleCount reports how many connections tr pools, in total and for host.
func (t *Transport) idleCount(host string) (total, perHost int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, list := range t.idle {
		n += len(list)
	}
	if n != t.nidle {
		panic(fmt.Sprintf("idle lists hold %d connections, nidle says %d", n, t.nidle))
	}
	return n, len(t.idle[host])
}

// TestTransportRetriesStaleIdleConn: the server closes a pooled connection
// while it is idle. The next request fails on it with nothing received
// and is sent again once, on a new connection.
func TestTransportRetriesStaleIdleConn(t *testing.T) {
	srv, accepts := countingServer(t, func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "hello")
	})
	tr := NewTransport()
	defer tr.CloseIdleConnections()
	if body, err := transportGet(context.Background(), tr, srv.URL); err != nil || body != "hello" {
		t.Fatalf("first GET = %q, %v", body, err)
	}
	if total, _ := tr.idleCount(""); total != 1 {
		t.Fatalf("%d idle connections after the first GET, want 1", total)
	}
	srv.CloseClientConnections()
	if body, err := transportGet(context.Background(), tr, srv.URL); err != nil || body != "hello" {
		t.Fatalf("GET on the stale connection = %q, %v; want it retried", body, err)
	}
	if n := accepts.Load(); n != 2 {
		t.Errorf("server accepted %d connections, want 2", n)
	}
}

// TestTransportFreshDialFailureNotRetried: a connection dialled for the
// request that fails before any reply byte is an error, not a retry, and
// so is a refused dial.
func TestTransportFreshDialFailureNotRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			c.Close() //nolint:errcheck // hang up without a reply
		}
	}()
	tr := NewTransport()
	if _, err := transportGet(context.Background(), tr, "http://"+ln.Addr().String()+"/"); err == nil {
		t.Fatal("GET against a server that hangs up succeeded")
	}
	ln.Close() //nolint:errcheck // stops the accept loop
	<-done
	if n := accepts.Load(); n != 1 {
		t.Errorf("server accepted %d connections, want 1: a fresh connection's failure is not retried", n)
	}
	if _, err := transportGet(context.Background(), tr, "http://"+ln.Addr().String()+"/"); err == nil {
		t.Error("GET against a closed port succeeded")
	}
}

// TestTransportPoolsOnlyCleanEOF: a connection goes back to the pool only
// when its body was read to EOF and neither side asked to close it.
func TestTransportPoolsOnlyCleanEOF(t *testing.T) {
	big := strings.Repeat("x", 64<<10)
	srv, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/close":
			w.Header().Set("Connection", "close")
			_, _ = io.WriteString(w, "bye")
		case "/big":
			_, _ = io.WriteString(w, big)
		case "/empty":
		default:
			_, _ = io.WriteString(w, "ok")
		}
	})
	host := strings.TrimPrefix(srv.URL, "http://")
	for _, tc := range []struct {
		name     string
		path     string
		reqClose bool
		readN    int // bytes read before Close; -1 reads to EOF
		pooled   int
	}{
		{"read to EOF", "/", false, -1, 1},
		{"empty body", "/empty", false, 0, 1},
		{"server sends Connection: close", "/close", false, -1, 0},
		{"request sets Close", "/", true, -1, 0},
		{"closed before EOF", "/big", false, 10, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTransport()
			defer tr.CloseIdleConnections()
			req, err := http.NewRequest(http.MethodGet, srv.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Close = tc.reqClose
			resp, err := tr.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			if tc.readN < 0 {
				_, err = io.ReadAll(resp.Body)
			} else {
				_, err = io.ReadFull(resp.Body, make([]byte, tc.readN))
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := resp.Body.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := resp.Body.Read(make([]byte, 1)); err == nil {
				t.Error("Read after Close succeeded")
			}
			if _, n := tr.idleCount(host); n != tc.pooled {
				t.Errorf("%d pooled connections, want %d", n, tc.pooled)
			}
		})
	}
}

// TestTransportHonoursContext: a request to a handler that never answers
// returns at its context's deadline, or when its context is cancelled —
// and so does a health probe, whose context is bounded by the interval.
func TestTransportHonoursContext(t *testing.T) {
	srv, _ := countingServer(t, func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // the client hung up
		case <-time.After(10 * time.Second):
		}
	})
	tr := NewTransport()
	const wait = 100 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), wait)
	start := time.Now()
	_, err := transportGet(ctx, tr, srv.URL)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("past its deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("deadline of %v honoured after %v", wait, d)
	}

	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(wait, cancel)
	start = time.Now()
	if _, err := transportGet(ctx, tr, srv.URL); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation after %v honoured after %v", wait, d)
	}

	m := &healthMonitor{cfg: HealthConfig{ProbeInterval: wait}, client: &http.Client{Transport: tr}}
	start = time.Now()
	if m.probe(1, srv.URL) {
		t.Error("probe of a handler that never answers succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("probe bounded by %v returned after %v", wait, d)
	}
	if total, _ := tr.idleCount(""); total != 0 {
		t.Errorf("%d connections pooled after abandoned requests, want 0", total)
	}
}

// TestTransportStreamsBody: the reply returns once its header is read,
// before the body is sent, so readBody's bound applies to a body that
// is never held whole. A streamed body of maxBodyBytes+1 fails it.
func TestTransportStreamsBody(t *testing.T) {
	release := make(chan struct{})
	srv, _ := countingServer(t, func(w http.ResponseWriter, _ *http.Request) {
		w.(http.Flusher).Flush() // the header goes out chunked, with no length
		<-release
		chunk := make([]byte, 64<<10)
		for left := maxBodyBytes + 1; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
				return // the client hung up at the limit
			}
		}
	})
	tr := NewTransport()
	req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.RoundTrip(req)
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	if resp.ContentLength != -1 {
		t.Fatalf("ContentLength = %d, want -1 (streamed)", resp.ContentLength)
	}
	if _, err := readBody(resp); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("readBody of a %d-byte stream: err = %v, want the limit error", maxBodyBytes+1, err)
	}
}

// TestTransportRefusesOtherSchemes: only plain http is spoken; anything
// else is an error, and the request body is closed as RoundTrip promises.
func TestTransportRefusesOtherSchemes(t *testing.T) {
	tr := NewTransport()
	for _, url := range []string{"https://127.0.0.1:1/", "ftp://127.0.0.1/x"} {
		body := &closeRecorder{Reader: strings.NewReader("payload")}
		req, err := http.NewRequest(http.MethodPost, url, body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.RoundTrip(req); err == nil || !strings.Contains(err.Error(), "scheme") {
			t.Errorf("%s: err = %v, want an unsupported-scheme error", url, err)
		}
		if !body.closed {
			t.Errorf("%s: request body left open", url)
		}
	}
}

type closeRecorder struct {
	io.Reader
	closed bool
}

func (c *closeRecorder) Close() error { c.closed = true; return nil }

// TestTransportIdleCapsUnderConcurrency: many goroutines sharing one
// transport over several hosts never pool more than the per-host and
// total caps, and every reply is intact.
func TestTransportIdleCapsUnderConcurrency(t *testing.T) {
	const perHost, total, hosts, workers, each = 3, 5, 3, 16, 40
	tr := NewTransport()
	tr.maxIdlePerHost, tr.maxIdleTotal = perHost, total
	defer tr.CloseIdleConnections()
	var urls []string
	for i := 0; i < hosts; i++ {
		srv, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.WriteString(w, r.URL.Path)
		})
		urls = append(urls, srv.URL)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				path := fmt.Sprintf("/w%d/%d", w, i)
				body, err := transportGet(context.Background(), tr, urls[(w+i)%hosts]+path)
				if err != nil || body != path {
					t.Errorf("GET %s = %q, %v", path, body, err)
					return
				}
				if n, _ := tr.idleCount(""); n > total {
					t.Errorf("%d idle connections, over the cap of %d", n, total)
				}
			}
		}(w)
	}
	wg.Wait()
	n, _ := tr.idleCount("")
	if n == 0 || n > total {
		t.Errorf("%d idle connections after the run, want 1..%d", n, total)
	}
	for _, u := range urls {
		if _, h := tr.idleCount(strings.TrimPrefix(u, "http://")); h > perHost {
			t.Errorf("%s: %d idle connections, over the per-host cap of %d", u, h, perHost)
		}
	}
}

// sinkConn is the client's end of a net.Pipe whose writes go to a buffer
// instead: FuzzTransportConn's fake server only writes, so a request
// never blocks on it, and the buffer keeps what the transport sent.
// SetDeadline fails only once this end is closed, as a socket's does; a
// pipe's also fails once the other end is.
type sinkConn struct {
	net.Conn
	sent   *bytes.Buffer
	closed atomic.Bool
}

func (c *sinkConn) Write(p []byte) (int, error) { return c.sent.Write(p) }

func (c *sinkConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (c *sinkConn) SetDeadline(t time.Time) error {
	if err := c.Conn.SetDeadline(t); err != nil && c.closed.Load() {
		return err
	}
	return nil
}

// FuzzTransportConn feeds arbitrary reply bytes to Transport.RoundTrip
// over a net.Pipe, then sends a second request, which a fresh connection
// answers with a known reply. The fake server writes the bytes and then
// hangs up, or (hangUp false) stalls until the test ends. It checks that:
//   - each round trip, body included, returns by its context's deadline;
//   - the connection is pooled only after a cleanly framed body: then
//     http.ReadResponse reads the bytes as exactly one keep-alive reply
//     with the same body;
//   - the second request gets the known reply, never bytes left over from
//     the first: an error is allowed only when a stalled connection was
//     pooled and the second request timed out on it;
//   - every request written parses with http.ReadRequest.
func FuzzTransportConn(f *testing.F) {
	const (
		wait   = 100 * time.Millisecond
		slack  = 2 * time.Second // a loaded machine's scheduling, not a hang
		second = "HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nsecond"
		target = "http://farm.test/obj/1"
	)
	f.Fuzz(func(t *testing.T, hangUp bool, in []byte) {
		tr := NewTransport()
		var servers sync.WaitGroup
		stall := make(chan struct{})
		var sent []*bytes.Buffer
		tr.dial = func(context.Context, string, string) (net.Conn, error) {
			reply := []byte(second)
			if len(sent) == 0 {
				reply = in
			}
			cli, srv := net.Pipe()
			buf := new(bytes.Buffer)
			sent = append(sent, buf)
			servers.Add(1)
			go func(hangUp bool) {
				defer servers.Done()
				if _, err := srv.Write(reply); err == nil && !hangUp {
					<-stall
				}
				srv.Close() //nolint:errcheck // the pipe's other end sees EOF
			}(hangUp || len(sent) > 1)
			return &sinkConn{Conn: cli, sent: buf}, nil
		}
		defer func() {
			close(stall)
			tr.CloseIdleConnections()
			servers.Wait()
			for i, buf := range sent {
				br := bufio.NewReader(buf)
				for buf.Len() > 0 || br.Buffered() > 0 {
					req, err := http.ReadRequest(br)
					if err != nil {
						t.Fatalf("connection %d: a request written does not parse: %v", i, err)
					}
					if req.Method != http.MethodGet || req.Host != "farm.test" || req.URL.Path != "/obj/1" || req.Header.Get(HeaderRequestID) != "r1" {
						t.Fatalf("connection %d: wrote %s %s to %s, id %q", i, req.Method, req.URL, req.Host, req.Header.Get(HeaderRequestID))
					}
				}
			}
		}()
		roundTrip := func() (*http.Response, []byte, error) {
			ctx, cancel := context.WithTimeout(context.Background(), wait)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(HeaderRequestID, "r1")
			start := time.Now()
			resp, err := tr.RoundTrip(req)
			var body []byte
			if err == nil {
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close() //nolint:errcheck // read side
			}
			if d := time.Since(start); d > wait+slack {
				t.Fatalf("a round trip with a %v deadline returned after %v", wait, d)
			}
			return resp, body, err
		}

		_, body, err := roundTrip()
		if pooled, _ := tr.idleCount(""); pooled > 0 {
			if err != nil {
				t.Fatalf("connection pooled after a failed reply: %v", err)
			}
			wr := bufio.NewReader(bytes.NewReader(in))
			want, werr := http.ReadResponse(wr, nil)
			if werr != nil {
				t.Fatalf("connection pooled after a reply net/http refuses: %v", werr)
			}
			wbody, werr := io.ReadAll(want.Body)
			switch rest, _ := io.ReadAll(wr); {
			case werr != nil || !bytes.Equal(wbody, body):
				t.Fatalf("connection pooled after body %q; net/http reads %q, %v", body, wbody, werr)
			case want.Close:
				t.Fatal("connection pooled after a reply that closes it")
			case len(rest) > 0:
				t.Fatalf("connection pooled with %d bytes after its reply", len(rest))
			}
		}
		resp, body, err := roundTrip()
		switch {
		case err == nil && (resp.StatusCode != http.StatusOK || string(body) != "second"):
			t.Fatalf("the second request got %d %q, not its own reply", resp.StatusCode, body)
		case err != nil && (hangUp || len(sent) > 1):
			t.Fatalf("the second request failed: %v", err)
		}
	})
}
