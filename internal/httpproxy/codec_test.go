package httpproxy

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
)

// Allocation bounds of one farm hop (TestHopAllocs): the counts and bytes
// this code makes. A hit is one exchange: the client's reply (its head's
// string, the Response with its body and value backing, the header map
// and its group), which the client keeps, and the server's request head
// string. A forwarded miss at a lone proxy is three exchanges (client to
// proxy, proxy to itself, where the loop is caught, then to the origin):
// the client's reply, each exchange's request and reply head strings, the
// two upstream paths, the flight and its channel, two upstream bodies and
// the origin's payload. The proxy's upstream requests and replies come
// from their pools. The count's
// headroom is the floor of the mean: fewer than hopAllocRuns stray
// allocations (a timer, a GC worker) in one measurement do not move it,
// while one more allocation per exchange does. The byte bounds leave
// about 100 bytes: a pooled reply or request allocated again (hundreds of
// bytes each) fails them.
const (
	hopAllocRuns     = 200
	maxAllocsPerHit  = 5
	maxAllocsPerMiss = 16
	// maxAllocsPerMissRace is a miss's bound under the race detector:
	// every pooled request and reply allocated afresh.
	maxAllocsPerMissRace = 28
	maxBytesPerHit       = 1120
	maxBytesPerMiss      = 2064
	hopAllocTableSize    = 4 * hopAllocRuns
)

// hopCost runs f once to warm up, then runs times on one P, as
// testing.AllocsPerRun does, and returns the mean allocations and bytes
// allocated per run, over every goroutine in the process, each rounded
// down.
func hopCost(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestHopAllocs gates the allocations of one farm hop, counted over every
// goroutine in the process: the client's round trip through the shared
// Transport, the proxy's server loop and handler, and, for a miss, the
// proxy's upstream fetches and the origin's reply. A new allocation on that
// path, or a pooled one made afresh, fails it on any machine. Under the
// race detector sync.Pool drops a random quarter of what it is given, so
// a miss is held only to the bound of an unpooled hop and its bytes are
// not checked.
func TestHopAllocs(t *testing.T) {
	origin, err := NewOrigin()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = origin.Close() })
	const hitObj = ids.ObjectID(42)
	p := stormProxy(t, origin.URL(), Config{ID: 0, Tables: core.Config{
		SingleSize: hopAllocTableSize, MultipleSize: hopAllocTableSize, CachingSize: hopAllocTableSize,
	}})
	p.mu.Lock()
	_, adopted := p.adc.Tables().ForceCache(hitObj, p.id, 1, 0)
	p.store[hitObj] = Payload(hitObj)
	p.mu.Unlock()
	if !adopted {
		t.Fatal("setup: ForceCache failed")
	}
	tr := sharedClient.Transport.(*Transport)
	newReq := func(obj ids.ObjectID) *http.Request {
		req, err := http.NewRequest(http.MethodGet, ObjectURL(p.URL(), obj), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(HeaderRequestID, "hop")
		return req
	}
	buf := make([]byte, 256)
	get := func(req *http.Request) (fromOrigin bool) {
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.ReadFull(resp.Body, buf)
		if err != io.ErrUnexpectedEOF || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %q, %v", req.URL, resp.StatusCode, buf[:n], err)
		}
		return resp.Header.Get(HeaderOrigin) == "1"
	}

	hit := newReq(hitObj)
	hitAllocs, hitBytes := hopCost(hopAllocRuns, func() {
		if get(hit) {
			t.Fatal("the cached object came from the origin")
		}
	})
	misses := make([]*http.Request, hopAllocRuns+1) // hopCost warms up with one more
	for i := range misses {
		misses[i] = newReq(ids.ObjectID(1000 + i))
	}
	next := 0
	missAllocs, missBytes := hopCost(hopAllocRuns, func() {
		if !get(misses[next]) {
			t.Fatal("a first request for an object did not reach the origin")
		}
		next++
	})
	t.Logf("per hit: %d allocations, %d bytes; per forwarded miss: %d allocations, %d bytes", hitAllocs, hitBytes, missAllocs, missBytes)
	if hitAllocs > maxAllocsPerHit {
		t.Errorf("%d allocations per hit, over the bound of %d", hitAllocs, maxAllocsPerHit)
	}
	maxMiss := uint64(maxAllocsPerMiss)
	if raceEnabled {
		maxMiss = maxAllocsPerMissRace
	}
	if missAllocs > maxMiss {
		t.Errorf("%d allocations per forwarded miss, over the bound of %d", missAllocs, maxMiss)
	}
	if raceEnabled {
		return
	}
	if hitBytes > maxBytesPerHit {
		t.Errorf("%d bytes allocated per hit, over the bound of %d", hitBytes, maxBytesPerHit)
	}
	if missBytes > maxBytesPerMiss {
		t.Errorf("%d bytes allocated per forwarded miss, over the bound of %d", missBytes, maxBytesPerMiss)
	}
}

// TestCodecRefuses: heads net/http reads but the codec refuses (the
// server answers such a request 400).
func TestCodecRefuses(t *testing.T) {
	for _, head := range []string{
		"GET / HTTP/1.1\nHost: x\n\n",                                                    // bare LF
		"GET / HTTP/1.1\r\nHost: x\r\nX-A: a\r\n b\r\n\r\n",                              // folded line
		"GET / HTTP/1.1\r\nHost : x\r\n\r\n",                                             // space before the colon
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nab", // two lengths
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"POST / HTTP/1.0\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nTrailer: X-T\r\n\r\n0\r\n\r\n",
		"CONNECT x:1 HTTP/1.1\r\nHost: x\r\n\r\n",
	} {
		if _, err := http.ReadRequest(bufio.NewReader(strings.NewReader(head))); err != nil {
			t.Fatalf("net/http refuses %q (%v): not a case for this test", head, err)
		}
		text, err := readHead(bufio.NewReader(strings.NewReader(head)), nil, 1<<20)
		if err == nil {
			req := http.Request{Header: make(http.Header)}
			err = parseRequest(string(text), &req, new(url.URL), nil, &bodyReader{})
		}
		if err == nil {
			t.Errorf("codec accepts %q", head)
		}
	}
	for _, reply := range []string{
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 204 No Content\r\nTransfer-Encoding: chunked\r\n\r\n",
	} {
		if _, err := http.ReadResponse(bufio.NewReader(strings.NewReader(reply)), nil); err != nil {
			t.Fatalf("net/http refuses %q (%v): not a case for this test", reply, err)
		}
		text, err := readHead(bufio.NewReader(strings.NewReader(reply)), nil, 1<<20)
		if err == nil {
			resp := http.Response{Header: make(http.Header)}
			err = parseResponse(string(text), http.MethodGet, &resp, nil, &bodyReader{})
		}
		if err == nil {
			t.Errorf("codec accepts the reply %q", reply)
		}
	}
}

// TestTransportRefusesInvalidRequests: what Request.Write and
// http.Transport refuse to send is refused before a connection is taken.
func TestTransportRefusesInvalidRequests(t *testing.T) {
	tr := NewTransport()
	for name, edit := range map[string]func(*http.Request){
		"CR LF in a value":  func(r *http.Request) { r.Header.Set("X-A", "a\r\nX-Injected: 1") },
		"LF in a name":      func(r *http.Request) { r.Header["X-A\nB"] = []string{"1"} },
		"space in a name":   func(r *http.Request) { r.Header["X A"] = []string{"1"} },
		"invalid Host":      func(r *http.Request) { r.Host = "farm test" },
		"invalid method":    func(r *http.Request) { r.Method = "G T" },
		"a request body":    func(r *http.Request) { r.Body = io.NopCloser(strings.NewReader("x")) },
		"control character": func(r *http.Request) { r.URL.RawQuery = "a\x00" },
	} {
		req, err := http.NewRequest(http.MethodGet, "http://127.0.0.1:1/obj/1", nil)
		if err != nil {
			t.Fatal(err)
		}
		edit(req)
		if _, err := tr.RoundTrip(req); err == nil || !strings.HasPrefix(err.Error(), "httpproxy: ") {
			t.Errorf("%s: err = %v, want the codec's refusal", name, err)
		}
	}
}

// readOurRequest parses in's first request with the codec, reporting
// false if it refuses it.
func readOurRequest(in []byte) (*http.Request, bool) {
	br := bufio.NewReader(bytes.NewReader(in))
	head, err := readHead(br, nil, 1<<20)
	if err != nil {
		return nil, false
	}
	text := string(head)
	req := &http.Request{Header: make(http.Header)}
	body := &bodyReader{br: br}
	if parseRequest(text, req, new(url.URL), make([]string, headLines(text)), body) != nil {
		return nil, false
	}
	req.Body = io.NopCloser(body)
	return req, true
}

// FuzzRequestHead holds the codec's request parsing to http.ReadRequest:
// it accepts nothing net/http refuses, and on a request both accept they
// agree on the request line, Host, Close, the framing, every header
// value and the body.
func FuzzRequestHead(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		ours, ok := readOurRequest(in)
		if !ok {
			return
		}
		want, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(in)))
		if err != nil {
			t.Fatalf("the codec accepts a request net/http refuses: %v", err)
		}
		for _, d := range []struct {
			what      string
			got, want any
		}{
			{"method", ours.Method, want.Method},
			{"request-URI", ours.RequestURI, want.RequestURI},
			{"URL", *ours.URL, *want.URL},
			{"proto", ours.Proto, want.Proto},
			{"version", [2]int{ours.ProtoMajor, ours.ProtoMinor}, [2]int{want.ProtoMajor, want.ProtoMinor}},
			{"Host", ours.Host, want.Host},
			{"Close", ours.Close, want.Close},
			{"ContentLength", ours.ContentLength, want.ContentLength},
			{"TransferEncoding", ours.TransferEncoding, want.TransferEncoding},
			{"header", ours.Header, want.Header},
		} {
			if !reflect.DeepEqual(d.got, d.want) {
				t.Fatalf("%s: codec %#v, net/http %#v", d.what, d.got, d.want)
			}
		}
		sameBody(t, ours.Body, want.Body)
	})
}

// FuzzResponseHead holds the codec's reply parsing to http.ReadResponse,
// for a GET or a HEAD: it accepts nothing net/http refuses, and on a reply
// both accept they agree on the status line, Close, the framing, every
// header value and the body.
func FuzzResponseHead(f *testing.F) {
	f.Fuzz(func(t *testing.T, head bool, in []byte) {
		method := http.MethodGet
		if head {
			method = http.MethodHead
		}
		br := bufio.NewReader(bytes.NewReader(in))
		text, err := readHead(br, nil, 1<<20)
		if err != nil {
			return
		}
		ours := &http.Response{Header: make(http.Header)}
		body := &bodyReader{br: br}
		if parseResponse(string(text), method, ours, make([]string, headLines(string(text))), body) != nil {
			return
		}
		want, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(in)), &http.Request{Method: method})
		if err != nil {
			t.Fatalf("the codec accepts a reply net/http refuses: %v", err)
		}
		for _, d := range []struct {
			what      string
			got, want any
		}{
			{"status", ours.Status, want.Status},
			{"status code", ours.StatusCode, want.StatusCode},
			{"proto", ours.Proto, want.Proto},
			{"version", [2]int{ours.ProtoMajor, ours.ProtoMinor}, [2]int{want.ProtoMajor, want.ProtoMinor}},
			{"Close", ours.Close, want.Close},
			{"ContentLength", ours.ContentLength, want.ContentLength},
			{"TransferEncoding", ours.TransferEncoding, want.TransferEncoding},
			{"header", ours.Header, want.Header},
		} {
			if !reflect.DeepEqual(d.got, d.want) {
				t.Fatalf("%s: codec %#v, net/http %#v", d.what, d.got, d.want)
			}
		}
		sameBody(t, io.NopCloser(body), want.Body)
	})
}

// sameBody checks that a body the codec reads without error net/http
// reads the same.
func sameBody(t *testing.T, ours, want io.ReadCloser) {
	t.Helper()
	got, err := io.ReadAll(ours)
	if err != nil {
		return
	}
	w, err := io.ReadAll(want)
	if err != nil {
		t.Fatalf("the codec reads a %d-byte body net/http refuses: %v", len(got), err)
	}
	if !bytes.Equal(got, w) {
		t.Fatalf("body: codec %q, net/http %q", got, w)
	}
}
