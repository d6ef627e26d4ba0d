package httpproxy

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/protocol"
)

// replicatedFarm builds a farm with the hot-object replication controller
// on (or off) — small caches, a low push threshold and a short window so a
// brief test stream engages every controller path.
func replicatedFarm(t *testing.T, proxies int, on bool) *Farm {
	t.Helper()
	cfg := Config{
		Tables: core.Config{SingleSize: 256, MultipleSize: 128, CachingSize: 32},
		Seed:   1,
	}
	if on {
		cfg.Replication = protocol.Replication{
			Enabled:      true,
			HotThreshold: 2,
			MaxReplicas:  3,
			Window:       256,
		}
	}
	f, err := NewFarm(proxies, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Errorf("farm close: %v", err)
		}
	})
	return f
}

// driveHotStream hammers a handful of head objects through rotating entry
// proxies — the farm equivalent of a steep Zipf head. Entry rotation makes
// three quarters of the arrivals at any holder come via a forwarding peer,
// which is exactly the recent requester a replica push targets.
func driveHotStream(t *testing.T, f *Farm, total, headObjects int) (hits int) {
	t.Helper()
	for i := 0; i < total; i++ {
		obj := ids.ObjectID(i%headObjects + 1)
		hit, err := f.Get(i%len(f.Proxies), obj, fmt.Sprintf("hot-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			hits++
		}
	}
	return hits
}

// TestFarmReplicationZipf is the real-network half of the replication
// claim: under a hot-headed stream the HTTP farm pushes replicas, pushed
// copies serve hits (payload integrity checked on every Get), and a stock
// farm on the identical stream keeps all replica counters at zero.
func TestFarmReplicationZipf(t *testing.T) {
	// head = 5 with 4 proxies: coprime cycles, so every head object
	// enters at every proxy (a 4/4 correlation would pin each object to
	// one entry proxy and nothing would ever forward).
	const total, head = 1200, 5

	stock := replicatedFarm(t, 4, false)
	driveHotStream(t, stock, total, head)
	for _, p := range stock.Proxies {
		s := p.Stats()
		if s.ReplicaPushes != 0 || s.ReplicaDrops != 0 || s.ReplicaHits != 0 {
			t.Fatalf("stock farm grew replica counters: %+v", s)
		}
	}

	f := replicatedFarm(t, 4, true)
	hits := driveHotStream(t, f, total, head)
	totalStats := f.TotalStats()
	if totalStats.ReplicaPushes == 0 {
		t.Error("no replica pushes under a hot-headed stream")
	}
	if totalStats.ReplicaHits == 0 {
		t.Error("pushed replicas never served a hit")
	}
	if hits == 0 {
		t.Error("hot stream produced no proxy cache hits at all")
	}
	// Multi-homing the head: more than one proxy must end up serving
	// local hits for the 4 head objects.
	serving := 0
	for _, p := range f.Proxies {
		if p.Stats().LocalHits > 0 {
			serving++
		}
	}
	if serving < 2 {
		t.Errorf("only %d proxies served local hits; replication should multi-home the head", serving)
	}
	t.Logf("replicated farm: hits=%d pushes=%d drops=%d replica hits=%d serving=%d",
		hits, totalStats.ReplicaPushes, totalStats.ReplicaDrops, totalStats.ReplicaHits, serving)
}

// TestFarmReplyPathClaimerAdvertises pins the reply-path half of the
// advertisement rule the simulator always had and the farm's hand-written
// copy lacked: a mid-chain proxy that claims the cached slot while origin data
// passes by speaks as the object's holder, so its reply carries the
// authoritative (here still empty) replica set — and the entry proxy relays it
// to the client.
func TestFarmReplyPathClaimerAdvertises(t *testing.T) {
	f := replicatedFarm(t, 2, true)
	entry, mid := f.Proxies[0], f.Proxies[1]
	const obj = ids.ObjectID(99)
	// mid has seen obj twice and is responsible for it (a THIS entry in the
	// multiple table): its miss goes to the origin and the reply's third
	// sighting promotes obj into its cache. entry has learned mid.
	teachLocation(mid, obj, mid.ID())
	teachLocation(mid, obj, mid.ID())
	teachLocation(entry, obj, mid.ID())

	req, err := http.NewRequest(http.MethodGet, ObjectURL(entry.URL(), obj), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderRequestID, "claim-1")
	resp, err := sharedClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck // read side
	h := resp.Header
	if h.Get(HeaderOrigin) != "1" || h.Get(HeaderCached) != "1" || parseNodeID(h.Get(HeaderResolver)) != mid.ID() {
		t.Fatalf("setup: want origin data claimed by %v mid-chain, got headers %v", mid.ID(), h)
	}
	if mid.CacheLen() != 1 || entry.CacheLen() != 0 {
		t.Fatalf("setup: store sizes mid=%d entry=%d, want 1/0", mid.CacheLen(), entry.CacheLen())
	}
	if h.Get(HeaderReplicate) != "1" {
		t.Errorf("reply claimed mid-chain carries no %s: the claimer did not advertise (headers %v)", HeaderReplicate, h)
	}
	if got := h.Get(HeaderReplicas); got != "" {
		t.Errorf("%s = %q, want the claimer's empty set", HeaderReplicas, got)
	}
}

// TestFarmReplicationMetrics checks that /metrics carries the replication
// controller's live set sizes when it is on, and no such family when it is
// off; the replica counters are in /debug/vars' stats.
func TestFarmReplicationMetrics(t *testing.T) {
	f := replicatedFarm(t, 3, true)
	driveHotStream(t, f, 600, 2)

	var sawPushes, sawTracked bool
	for _, p := range f.Proxies {
		page := metricsPage(t, p)
		tracked, okTracked := page.Value("adc_replication_tracked")
		_, okHeld := page.Value("adc_replication_held")
		if !okTracked || !okHeld {
			t.Fatalf("proxy %v: replication on but /metrics has no replication set sizes", p.ID())
		}
		sawTracked = sawTracked || tracked > 0
		status, body := getBody(t, p.URL()+"/debug/vars")
		if status != http.StatusOK {
			t.Fatalf("/debug/vars status %d", status)
		}
		var v debugVars
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
		}
		if v.Stats.ReplicaPushes > 0 {
			sawPushes = true
		}
	}
	if !sawPushes {
		t.Error("no proxy reported replica pushes in /debug/vars")
	}
	if !sawTracked {
		t.Error("no proxy tracks a replicated object on /metrics")
	}

	stock := replicatedFarm(t, 1, false)
	if _, ok := metricsPage(t, stock.Proxies[0]).Value("adc_replication_tracked"); ok {
		t.Error("stock farm /metrics has replication set sizes")
	}
}

// TestAdmissionRetryAfter pins the shed response's shape under saturation:
// every 429 must carry a Retry-After header so well-behaved clients back
// off instead of hammering a proxy that is already shedding.
func TestAdmissionRetryAfter(t *testing.T) {
	const clients = 8
	origin := newSlowOrigin(300 * time.Millisecond)
	defer origin.srv.Close()
	p := stormProxy(t, origin.srv.URL, Config{ID: 0, MaxActive: 1, MaxQueue: -1})

	var shed, badHeader atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodGet, ObjectURL(p.URL(), ids.ObjectID(2000+c)), nil)
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set(HeaderRequestID, "ra-"+strconv.Itoa(c))
			resp, err := sharedClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close() //nolint:errcheck // headers only
			if resp.StatusCode != http.StatusTooManyRequests {
				return
			}
			shed.Add(1)
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				badHeader.Add(1)
			} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
				// RFC 9110: delay-seconds, and it must tell the client
				// to actually wait.
				badHeader.Add(1)
			}
		}(c)
	}
	wg.Wait()

	if shed.Load() == 0 {
		t.Fatal("saturation never shed a request; Retry-After untested")
	}
	if badHeader.Load() != 0 {
		t.Errorf("%d of %d shed responses had a missing or invalid Retry-After", badHeader.Load(), shed.Load())
	}
}
