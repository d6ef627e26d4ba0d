package httpproxy

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/obs"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url) //nolint:gosec // loopback test URL
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestDebugVars(t *testing.T) {
	f := testFarm(t, 2)
	// Traffic first, so the counters have something to show.
	for i := 0; i < 10; i++ {
		if _, err := f.Get(0, 3, fmt.Sprintf("dv-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	status, body := getBody(t, f.Proxies[0].URL()+"/debug/vars")
	if status != http.StatusOK {
		t.Fatalf("/debug/vars status %d", status)
	}
	var v debugVars
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if v.ID != "Proxy[0]" {
		t.Errorf("id = %q, want Proxy[0]", v.ID)
	}
	// Peer-forwarded requests can loop back, so the counter is a floor.
	if v.Stats.Requests < 10 {
		t.Errorf("stats.requests = %d, want >= 10", v.Stats.Requests)
	}
	if v.LocalTime == 0 {
		t.Error("local_time still zero after traffic")
	}
	if v.Peers == 0 {
		t.Error("peers = 0 in a 2-proxy farm")
	}
	// A repeatedly-fetched object must show up somewhere in the tables.
	if v.TableLen == 0 {
		t.Error("table_len = 0 after 10 fetches")
	}
	if v.TableLen != v.CachingLen+v.MultipleLen+v.SingleLen {
		t.Errorf("table_len %d != caching %d + multiple %d + single %d",
			v.TableLen, v.CachingLen, v.MultipleLen, v.SingleLen)
	}
}

func TestDebugTables(t *testing.T) {
	f := testFarm(t, 2)
	for i := 0; i < 5; i++ {
		if _, err := f.Get(0, 9, fmt.Sprintf("dt-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	status, body := getBody(t, f.Proxies[0].URL()+"/debug/tables")
	if status != http.StatusOK {
		t.Fatalf("/debug/tables status %d", status)
	}
	for _, want := range []string{"Caching Table", "Multiple-Table", "Single-Table"} {
		if !strings.Contains(body, want) {
			t.Errorf("table dump missing %q:\n%s", want, body)
		}
	}
}

// checkFarmInvariants fails t unless every proxy of f passes CheckInvariants.
func checkFarmInvariants(t *testing.T, f *Farm) {
	t.Helper()
	for _, p := range f.Proxies {
		if err := p.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// TestDebugTablesCheck: /debug/tables?check=1 answers ok while the payload
// store is the caching table, and 500 naming the object once a cached
// object's payload goes missing.
func TestDebugTablesCheck(t *testing.T) {
	f := testFarm(t, 2)
	p := f.Proxies[0]
	for i := 0; i < 50 && p.CacheLen() == 0; i++ {
		if _, err := f.Get(0, 5, fmt.Sprintf("dc-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if p.CacheLen() == 0 {
		t.Fatal("setup: nothing cached after 50 fetches")
	}
	if status, body := getBody(t, p.URL()+"/debug/tables?check=1"); status != http.StatusOK || body != "ok\n" {
		t.Fatalf("consistent proxy: status %d, body %q; want 200 ok", status, body)
	}
	p.mu.Lock()
	for obj := range p.store {
		delete(p.store, obj)
		break
	}
	p.mu.Unlock()
	status, body := getBody(t, p.URL()+"/debug/tables?check=1")
	if status != http.StatusInternalServerError || !strings.Contains(body, "payload") {
		t.Errorf("dropped payload: status %d, body %q; want 500 naming the payload", status, body)
	}
}

func TestDebugPprof(t *testing.T) {
	f := testFarm(t, 1)
	status, body := getBody(t, f.Proxies[0].URL()+"/debug/pprof/")
	if status != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", status)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index missing profile listing:\n%s", body)
	}
	status, _ = getBody(t, f.Proxies[0].URL()+"/debug/pprof/cmdline")
	if status != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", status)
	}
}

func TestHashRequestID(t *testing.T) {
	a, b := HashRequestID("r1"), HashRequestID("r2")
	if a == b {
		t.Error("distinct strings hashed to the same RequestID")
	}
	if a != HashRequestID("r1") {
		t.Error("hash not stable")
	}
	if HashRequestID("") == 0 {
		t.Error("zero sentinel leaked through")
	}
}

// TestFarmTracing drives a traced farm and checks that every hop of an
// HTTP request lands in the trace under one hashed request key.
func TestFarmTracing(t *testing.T) {
	f := testFarm(t, 3)
	tr := obs.New()
	f.SetTracer(tr)

	const reqID = "traced-1"
	if _, err := f.Get(0, 5, reqID); err != nil {
		t.Fatal(err)
	}
	// Re-fetch the same object until selective caching promotes it and a
	// fetch resolves as a local hit, so the trace gains a hit event.
	var hitReq string
	for i := 0; i < 50 && hitReq == ""; i++ {
		id := fmt.Sprintf("traced-again-%d", i)
		hit, err := f.Get(0, 5, id)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			hitReq = id
		}
	}
	if hitReq == "" {
		t.Fatal("object never became a proxy hit after 50 fetches")
	}

	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	key := HashRequestID(reqID)
	kinds := map[obs.Kind]int{}
	for _, e := range events {
		if e.Req == key {
			kinds[e.Kind]++
		}
	}
	for _, k := range []obs.Kind{obs.KindInject, obs.KindForward, obs.KindOriginResolve, obs.KindBackward, obs.KindDeliver} {
		if kinds[k] == 0 {
			t.Errorf("first fetch: no %v event under its request key (saw %v)", k, kinds)
		}
	}
	var hitEvent obs.Event
	for _, e := range events {
		if e.Kind == obs.KindHit && e.Req == HashRequestID(hitReq) {
			hitEvent = e
		}
	}
	if hitEvent.Kind != obs.KindHit {
		t.Fatal("proxy-hit fetch produced no hit event")
	}
	if got := obs.OutcomeString(hitEvent.Arg); got != "caching→caching" {
		t.Errorf("hit event outcome = %q, want the table transition caching→caching as in simulator traces", got)
	}

	// One trace vocabulary with the simulator: a backward event's Loc is the
	// location learned into the tables, not the resolver after this proxy's
	// own claim. Proxy 0 has seen object 6 twice at proxy 1, proxy 1 once at
	// itself: the reply leaves proxy 1 uncached with resolver 1, and proxy
	// 0 learns "1", caches the object and claims it.
	const claimObj = ids.ObjectID(6)
	teachLocation(f.Proxies[0], claimObj, 1)
	teachLocation(f.Proxies[0], claimObj, 1)
	teachLocation(f.Proxies[1], claimObj, 1)
	if _, err := f.Get(0, claimObj, "traced-claim"); err != nil {
		t.Fatal(err)
	}
	var learnedAt0, deliveredFrom ids.NodeID = ids.None, ids.None
	var outcomeAt0 string
	for _, e := range tr.Events() {
		if e.Req != HashRequestID("traced-claim") {
			continue
		}
		switch {
		case e.Kind == obs.KindBackward && e.Node == 0:
			learnedAt0, outcomeAt0 = e.Loc, obs.OutcomeString(e.Arg)
		case e.Kind == obs.KindDeliver:
			deliveredFrom = e.Loc
		}
	}
	if outcomeAt0 != "multiple→caching" || deliveredFrom != 0 {
		t.Fatalf("setup: proxy 0 outcome %q, delivered resolver %v; want multiple→caching claimed by proxy 0", outcomeAt0, deliveredFrom)
	}
	if learnedAt0 != 1 {
		t.Errorf("claimer's backward event Loc = %v, want the learned location Proxy[1]", learnedAt0)
	}

	// Wall-clock stamping: the farm runs in real time, so events must carry
	// At (microseconds), not rely on Seq.
	for i, e := range events {
		if e.At == 0 && i > 0 {
			t.Errorf("event %d (%v) has no wall-clock stamp", i, e.Kind)
			break
		}
	}
}
