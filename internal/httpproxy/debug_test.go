package httpproxy

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/protocol"
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
		t.Errorf("table_len %v != caching %v + multiple %v + single %v",
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

// TestCheckInvariantsCatchesReplicaSets corrupts one replica set at a time
// and expects the live check, and /debug/tables?check=1 with it, to name
// the violation: a holder that is no known proxy, more holders than
// MaxReplicas, and a set out of order or repeating a holder.
func TestCheckInvariantsCatchesReplicaSets(t *testing.T) {
	f, err := NewFarm(4, Config{
		Tables:      core.Config{SingleSize: 64, MultipleSize: 64, CachingSize: 16},
		Seed:        1,
		Replication: protocol.Replication{Enabled: true, MaxReplicas: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	p, obj := f.Proxies[0], ids.ObjectID(5)
	teachLocation(p, obj, f.Proxies[1].ID())
	// SetReplicas drops repeats, so plant distinct holders of the set's
	// length and write the set over them.
	setReplicas := func(set []ids.NodeID) {
		p.mu.Lock()
		defer p.mu.Unlock()
		distinct := make([]ids.NodeID, len(set))
		for i := range distinct {
			distinct[i] = ids.NodeID(10 + i)
		}
		p.adc.Tables().SetReplicas(obj, distinct, ids.None, len(set))
		e, _ := p.adc.Tables().Lookup(obj)
		copy(e.Replicas(), set)
	}
	for _, tc := range []struct {
		name string
		set  []ids.NodeID
	}{
		{"holder is no known proxy", []ids.NodeID{7}},
		{"more holders than MaxReplicas", []ids.NodeID{2, 3}},
		{"holders out of order", []ids.NodeID{3, 2}},
		{"holder repeated", []ids.NodeID{2, 2}},
	} {
		setReplicas([]ids.NodeID{2})
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("before %s: %v", tc.name, err)
		}
		setReplicas(tc.set)
		if err := p.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants passed replica set %v", tc.name, tc.set)
		}
		if status, body := getBody(t, p.URL()+"/debug/tables?check=1"); status != http.StatusInternalServerError {
			t.Errorf("%s: /debug/tables?check=1 = %d %q, want 500", tc.name, status, body)
		}
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

// TestTraceCarriesProtocolDecisions: a traced farm's spans say what the
// protocol decided at each hop, in the simulator's EventSpans wording — the
// server span the Arrive outcome of a hit or the Learn outcome of a reply,
// the forward span the destination and Route's reason.
func TestTraceCarriesProtocolDecisions(t *testing.T) {
	f := tracedFarm(t, 3, FaultTolerance{})
	// waitSpan returns the first span in the farm matching want, waiting
	// for it: a handler records its server span just after the client has
	// read the reply.
	waitSpan := func(what string, want func(obs.Span) bool) obs.Span {
		t.Helper()
		var got obs.Span
		waitFor(t, 5*time.Second, what, func() bool {
			for _, p := range f.Proxies {
				for _, s := range p.TraceDump().Spans {
					if want(s) {
						got = s
						return true
					}
				}
			}
			return false
		})
		return got
	}

	// Re-fetch one object until selective caching promotes it and a fetch
	// resolves as a proxy hit.
	hit := false
	for i := 0; i < 50 && !hit; i++ {
		var err error
		if hit, err = f.Get(0, 5, fmt.Sprintf("traced-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if !hit {
		t.Fatal("object never became a proxy hit after 50 fetches")
	}
	hitSpan := waitSpan("the hit's server span", func(s obs.Span) bool {
		return s.Stage == metrics.StageServer.String() && s.Obj == 5 && strings.HasPrefix(s.Detail, "hit ")
	})
	if hitSpan.Detail != "hit caching→caching" {
		t.Errorf("hit server span detail = %q, want the table transition caching→caching", hitSpan.Detail)
	}

	// Proxy 0 has seen object 6 twice at proxy 1, proxy 1 once at itself:
	// proxy 0 forwards to the learned location, the reply leaves proxy 1
	// uncached with resolver 1, and proxy 0 learns "1", caches the object
	// and claims it.
	const claimObj = ids.ObjectID(6)
	teachLocation(f.Proxies[0], claimObj, 1)
	teachLocation(f.Proxies[0], claimObj, 1)
	teachLocation(f.Proxies[1], claimObj, 1)
	if _, err := f.Get(0, claimObj, "traced-claim"); err != nil {
		t.Fatal(err)
	}
	claim := waitSpan("the claimer's server span", func(s obs.Span) bool {
		return s.Stage == metrics.StageServer.String() && s.Node == 0 && s.Obj == uint64(claimObj)
	})
	if claim.Detail != "learned Proxy[1] multiple→caching" {
		t.Errorf("claimer's server span detail = %q, want the learned location and its transition", claim.Detail)
	}
	fwd := waitSpan("the claimer's forward span", func(s obs.Span) bool {
		return s.Stage == metrics.StageForward.String() && s.Node == 0 && s.Obj == uint64(claimObj)
	})
	if fwd.Detail != "Proxy[1] learned" || fwd.Parent != claim.ID {
		t.Errorf("claimer's forward span = %+v, want detail \"Proxy[1] learned\" under its server span", fwd)
	}
}
