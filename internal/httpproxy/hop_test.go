package httpproxy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/protocol"
)

// TestUnknownResolverIsNotLearned: an upstream whose replies name a
// resolver outside the installed book (X-Adc-Resolver: Proxy[99]) must
// not teach a lone proxy that location, which has no URL to forward to.
// The reply reads as origin data and the proxy claims it. With replication
// on, a replica holder (X-Adc-Replicas) and a sender (X-Adc-Sender)
// outside the book are dropped the same way, so no replica set names one.
// Every reply is 200 and the invariants hold after each.
func TestUnknownResolverIsNotLearned(t *testing.T) {
	for _, replicate := range []bool{false, true} {
		t.Run("replication="+strconv.FormatBool(replicate), func(t *testing.T) {
			origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				obj, err := parseObjectPath(r.URL.Path)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				h := w.Header()
				h.Set(HeaderResolver, "Proxy[99]")
				h.Set(HeaderOrigin, "1")
				if replicate {
					h.Set(HeaderReplicate, "1")
					h.Set(HeaderReplicas, "Proxy[0],Proxy[77]")
				}
				_, _ = w.Write(Payload(obj))
			}))
			t.Cleanup(origin.Close)
			cfg := Config{ID: 0}
			if replicate {
				cfg.Replication = protocol.Replication{Enabled: true, HotThreshold: 1, MaxReplicas: 3, Window: 256}
			}
			p := stormProxy(t, origin.URL, cfg)
			const obj = ids.ObjectID(7)
			for i := 0; i < 4; i++ {
				req, err := http.NewRequest(http.MethodGet, ObjectURL(p.URL(), obj), nil)
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set(HeaderRequestID, "unknown-"+strconv.Itoa(i))
				if replicate {
					req.Header.Set(HeaderSender, "Proxy[55]")
				}
				resp, err := sharedClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := readBody(resp)
				resp.Body.Close() //nolint:errcheck // read side
				if err != nil || resp.StatusCode != http.StatusOK || string(body) != string(Payload(obj)) {
					t.Fatalf("request %d: status %d, body %q, %v", i, resp.StatusCode, body, err)
				}
				if got := resp.Header.Get(HeaderResolver); got != p.ID().String() {
					t.Errorf("request %d: X-Adc-Resolver %q, want the proxy itself", i, got)
				}
				p.mu.Lock()
				loc, ok := p.adc.Tables().ForwardLocation(obj)
				p.mu.Unlock()
				if ok && loc != p.ID() {
					t.Errorf("request %d: the tables learned %v as the location", i, loc)
				}
				if err := p.CheckInvariants(); err != nil {
					t.Errorf("request %d: %v", i, err)
				}
			}
		})
	}
}

// TestPooledHopStateStaysPrivate runs concurrent entry misses through a
// 3-proxy farm with replication on, behind an origin slow enough that
// clients asking for the same object at once coalesce, while other misses
// forward between the proxies. Every reply's body must be the object's
// payload and its head a well-formed ADC head: pooled requests and replies
// recycled under one request must never leak into another's. Run it with
// -race.
func TestPooledHopStateStaysPrivate(t *testing.T) {
	origin := newSlowOrigin(time.Millisecond)
	t.Cleanup(origin.srv.Close)
	const proxies = 3
	var farm []*Proxy
	book := make(map[ids.NodeID]string, proxies)
	for i := 0; i < proxies; i++ {
		p, err := NewProxy(Config{
			ID:          ids.NodeID(i),
			Tables:      core.Config{SingleSize: 64, MultipleSize: 32, CachingSize: 16},
			OriginURL:   origin.srv.URL,
			Seed:        1,
			Replication: protocol.Replication{Enabled: true, HotThreshold: 2, MaxReplicas: 2, Window: 128},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		farm = append(farm, p)
		book[p.ID()] = p.URL()
	}
	for _, p := range farm {
		p.SetPeers(book)
	}

	const clients, perClient = 8, 120
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Pairs of clients ask one entry proxy for the same object
				// at the same step: those coalesce. The object set moves on
				// every few steps and outgrows the caches, so misses
				// keep forwarding.
				obj := ids.ObjectID(i/3*4 + c/2)
				entry := farm[(c/2+i)%proxies]
				if err := checkedGet(entry, obj, fmt.Sprintf("pool-%d-%d", c, i)); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var forwards, coalesced uint64
	for _, p := range farm {
		s := p.Stats()
		forwards += s.ForwardLearned + s.ForwardRandom
		coalesced += s.CoalescedMisses
		if err := p.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
	t.Logf("%d forwards, %d coalesced misses", forwards, coalesced)
	if forwards == 0 || coalesced == 0 {
		t.Errorf("%d forwards and %d coalesced misses: the test drove neither path it is for", forwards, coalesced)
	}
}

// checkedGet fetches obj through p and checks the reply: status 200, the
// object's payload, and a head whose typed reading is one a reply
// leaving Receive_Reply can have: a farm proxy as the resolver, a reply
// not from the origin marked cached, and a well-formed replica set.
func checkedGet(p *Proxy, obj ids.ObjectID, reqID string) error {
	req, err := http.NewRequest(http.MethodGet, ObjectURL(p.URL(), obj), nil)
	if err != nil {
		return err
	}
	req.Header.Set(HeaderRequestID, reqID)
	resp, err := sharedClient.Do(req)
	if err != nil {
		return err
	}
	body, err := readBody(resp)
	resp.Body.Close() //nolint:errcheck // read side
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %v: status %d, body %q, %v", reqID, obj, resp.StatusCode, body, err)
	}
	if want := Payload(obj); string(body) != string(want) {
		return fmt.Errorf("%s: %v: body %q, want %q", reqID, obj, body, want)
	}
	head := p.decodeHead(resp.Header)
	switch {
	case head.resolver == ids.None || resp.Header.Get(HeaderResolver) != head.resolver.String():
		return fmt.Errorf("%s: %v: resolver %q is no farm proxy", reqID, obj, resp.Header.Get(HeaderResolver))
	case !head.fromOrigin && !head.cached:
		return fmt.Errorf("%s: %v: a reply from a proxy's cache is not marked cached", reqID, obj)
	case head.advert.Replicate && resp.Header.Get(HeaderReplicas) != formatNodeList(head.advert.Replicas):
		return fmt.Errorf("%s: %v: replica set %q", reqID, obj, resp.Header.Get(HeaderReplicas))
	}
	return nil
}

// TestTransportRepliesAreNotReused holds Transport.RoundTrip to its
// contract while proxies recycle their own replies on the same Transport:
// each call returns a distinct *http.Response and Header map, and no later
// round trip overwrites one, even after its body was read to EOF and
// closed, which hands its connection to the next round trip.
func TestTransportRepliesAreNotReused(t *testing.T) {
	f := testFarm(t, 3)
	tr := sharedClient.Transport.(*Transport)
	type kept struct {
		resp   *http.Response
		header http.Header // a deep copy, taken when the reply arrived
		status int
		length int64
	}
	var all []kept
	seen := make(map[*http.Response]bool)
	headers := make(map[uintptr]bool)
	for i := 0; i < 60; i++ {
		obj := ids.ObjectID(i % 17)
		req, err := http.NewRequest(http.MethodGet, ObjectURL(f.Proxies[i%3].URL(), obj), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(HeaderRequestID, "contract-"+strconv.Itoa(i))
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil || string(body) != string(Payload(obj)) {
			t.Fatalf("round trip %d: body %q, %v", i, body, err)
		}
		resp.Body.Close() //nolint:errcheck // read side
		h := reflect.ValueOf(resp.Header).Pointer()
		if seen[resp] || headers[h] {
			t.Fatalf("round trip %d returned a Response or Header map an earlier one returned", i)
		}
		seen[resp], headers[h] = true, true
		all = append(all, kept{resp, resp.Header.Clone(), resp.StatusCode, resp.ContentLength})
		// A miss through another proxy: its fetches recycle their replies.
		if _, err := f.Get((i+1)%3, ids.ObjectID(1000+i), "contract-miss-"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range all {
		if k.resp.StatusCode != k.status || k.resp.ContentLength != k.length || !reflect.DeepEqual(k.resp.Header, k.header) {
			t.Errorf("round trip %d's reply changed after the fact: status %d, length %d, header %v; was %d, %d, %v",
				i, k.resp.StatusCode, k.resp.ContentLength, k.resp.Header, k.status, k.length, k.header)
		}
	}
}
