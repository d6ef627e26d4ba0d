package httpproxy

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/promtext"
	"github.com/adc-sim/adc/internal/protocol"
)

// tracedFarm builds a farm with tracing on (every request) and optional
// fault tolerance.
func tracedFarm(t *testing.T, proxies int, ft FaultTolerance) *Farm {
	t.Helper()
	f, err := NewFarm(proxies, Config{
		Tables:         core.Config{SingleSize: 256, MultipleSize: 256, CachingSize: 64},
		Seed:           7,
		MaxHops:        8,
		FaultTolerance: ft,
		Tracing:        Tracing{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// traceDumps snapshots every proxy's span ring in-process: the dumps each
// proxy's /debug/trace serves.
func traceDumps(f *Farm) []obs.SpanDump {
	dumps := make([]obs.SpanDump, len(f.Proxies))
	for i, p := range f.Proxies {
		dumps[i] = p.TraceDump()
	}
	return dumps
}

// TestMetricsParsesAndLints drives traffic through a farm and checks every
// proxy's /metrics against the strict promtext parser and histogram lint,
// plus a value-level cross-check against the proxy's own counters.
func TestMetricsParsesAndLints(t *testing.T) {
	f := tracedFarm(t, 3, FaultTolerance{
		Health: HealthConfig{
			Enabled:          true,
			ProbeInterval:    20 * time.Millisecond,
			FailureThreshold: 2,
		},
	})
	for i := 0; i < 120; i++ {
		if _, err := f.Get(i%len(f.Proxies), ids.ObjectID(i%17+1), "m-"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range f.Proxies {
		resp, err := http.Get(p.URL() + metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		text := readAll(t, resp)
		if err := promtext.Lint(strings.NewReader(text)); err != nil {
			t.Fatalf("%v metrics lint: %v\n%s", p.ID(), err, text)
		}
		d, err := promtext.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%v metrics parse: %v", p.ID(), err)
		}
		stats := p.Stats()
		if v, ok := d.Value("adc_requests_total"); !ok || v != float64(stats.Requests) {
			t.Errorf("%v adc_requests_total = %v, want %d", p.ID(), v, stats.Requests)
		}
		if _, ok := d.Value("adc_proxy_info", promtext.L("proxy", p.ID().String())); !ok {
			t.Errorf("%v adc_proxy_info missing its own proxy label", p.ID())
		}
		// The server-stage histogram counts every handled request (shed
		// ones included; none are shed here).
		buckets := d.Buckets("adc_stage_latency_seconds", promtext.L("stage", "server"))
		if len(buckets) == 0 {
			t.Fatalf("%v has no server-stage histogram", p.ID())
		}
		if got := buckets[len(buckets)-1].Cum; got != stats.Requests {
			t.Errorf("%v server stage count = %d, want %d", p.ID(), got, stats.Requests)
		}
		// Health is on: every other proxy appears in adc_peer_state.
		for _, q := range f.Proxies {
			if q.ID() == p.ID() {
				continue
			}
			if v, ok := d.Value("adc_peer_state", promtext.L("peer", q.ID().String())); !ok || v != 0 {
				t.Errorf("%v adc_peer_state{%v} = %v, %v; want 0 (up)", p.ID(), q.ID(), v, ok)
			}
		}
		if v, ok := d.Value("adc_trace_spans"); !ok || v == 0 {
			t.Errorf("%v adc_trace_spans = %v, %v; want > 0 with tracing on", p.ID(), v, ok)
		}
		// The span ring over /debug/trace, as adcload and adctrace scrape it.
		dump, err := ScrapeTraceDump(http.DefaultClient, p.URL()+"/")
		if err != nil {
			t.Fatal(err)
		}
		if dump.Proxy != p.ID().String() || len(dump.Spans) == 0 || dump.ScrapedUs == 0 {
			t.Errorf("%v scraped dump: proxy %q, %d spans, scraped at %d; want its own name, spans and a stamp",
				p.ID(), dump.Proxy, len(dump.Spans), dump.ScrapedUs)
		}
	}
}

// TestMetricsRoundTripsProxyStats holds /metrics and /debug/vars to one
// definition of the counters and gauges: on a farm with replication, health
// and tracing on, reading every proxy's parsed page back through
// metrics.ReadProm gives exactly the proxy's Stats(), which is exactly the
// stats /debug/vars serves (bench/ sums them); metrics.ReadGauges gives the
// /debug/vars scalar fields, and the peer states are the health monitor's.
func TestMetricsRoundTripsProxyStats(t *testing.T) {
	f, err := NewFarm(3, Config{
		Tables:         core.Config{SingleSize: 256, MultipleSize: 128, CachingSize: 32},
		Seed:           1,
		Replication:    protocol.Replication{Enabled: true, HotThreshold: 2, MaxReplicas: 3, Window: 256},
		FaultTolerance: FaultTolerance{Health: HealthConfig{Enabled: true, ProbeInterval: time.Hour}},
		Tracing:        Tracing{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	driveHotStream(t, f, 600, 5)
	// A handler may still be finishing after its client read the body.
	time.Sleep(50 * time.Millisecond)

	var total metrics.ProxyStats
	for _, p := range f.Proxies {
		varsAt := time.Now()
		_, body := getBody(t, p.URL()+"/debug/vars")
		var v debugVars
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("%v /debug/vars is not JSON: %v", p.ID(), err)
		}
		resp, err := http.Get(p.URL() + metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		page, err := promtext.Parse(strings.NewReader(readAll(t, resp)))
		if err != nil {
			t.Fatalf("%v metrics parse: %v", p.ID(), err)
		}
		between := time.Since(varsAt).Seconds()
		stats := p.Stats()
		if got := metrics.ReadProm(page); got != stats {
			t.Errorf("%v: ReadProm(/metrics) = %+v\nwant Stats() = %+v", p.ID(), got, stats)
		}
		if v.Stats != stats {
			t.Errorf("%v: /debug/vars stats = %+v\nwant Stats() = %+v", p.ID(), v.Stats, stats)
		}
		// Uptime is the one clock among the gauges, and /metrics was read
		// second.
		g := metrics.ReadGauges(page)
		if d := g.UptimeSeconds - v.UptimeSeconds; d < 0 || d > between {
			t.Errorf("%v: /metrics uptime %vs, /debug/vars %vs, read %vs apart", p.ID(), g.UptimeSeconds, v.UptimeSeconds, between)
		}
		g.UptimeSeconds = v.UptimeSeconds
		if g != v.Gauges {
			t.Errorf("%v: ReadGauges(/metrics) = %+v\nwant the /debug/vars gauges %+v", p.ID(), g, v.Gauges)
		}
		if v.TableLen == 0 || v.StoreLen != v.CachingLen || v.TraceSpans == 0 {
			t.Errorf("%v: /debug/vars gauges %+v: want tables, a store the caching table's size and spans", p.ID(), v.Gauges)
		}
		// One sample per other proxy, valued the monitor's PeerState.
		var states int
		for _, q := range f.Proxies {
			got, ok := page.Value(PeerStateFamily, promtext.L("peer", q.ID().String()))
			if q == p {
				if ok {
					t.Errorf("%v: /metrics holds a peer state for itself", p.ID())
				}
				continue
			}
			if want := p.health.Load().state(q.ID()); !ok || PeerState(got) != want {
				t.Errorf("%v: /metrics peer state of %v = %v (found %v), want %v", p.ID(), q.ID(), got, ok, want)
			}
			states++
		}
		if n := len(page.Families[PeerStateFamily].Samples); n != states {
			t.Errorf("%v: %d peer-state samples, want %d", p.ID(), n, states)
		}
		total.Add(stats)
	}
	if total.Requests == 0 || total.ReplicaPushes == 0 || total.ReplicaHits == 0 {
		t.Errorf("farm totals %+v: want requests, replica pushes and replica hits", total)
	}
}

// metricsPage is p's /metrics page, served in-process and parsed.
func metricsPage(t *testing.T, p *Proxy) *promtext.Document {
	t.Helper()
	rec := httptest.NewRecorder()
	p.handleMetrics(rec, nil)
	page, err := promtext.Parse(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	return page
}

// stageCounts is how many intervals each of p's stage histograms holds, as
// its /metrics page (served in-process: p may be killed) reports them.
func stageCounts(t *testing.T, p *Proxy) [metrics.NumStages]uint64 {
	t.Helper()
	var out [metrics.NumStages]uint64
	for st, b := range metrics.ReadStages(metricsPage(t, p)) {
		out[st] = b[len(b)-1].Cum
	}
	return out
}

// TestStagePopulations pins what each stage histogram counts, after one
// forwarded miss, one hit, one failed fetch and one shed, all entering at
// Proxy[0]: every server span (the hop at Proxy[1] included) and every
// gate wait, sheds included; only fetches that came back, so the failed
// forward is not among them; and flight waits only when shared, which no
// request here is.
func TestStagePopulations(t *testing.T) {
	f, err := NewFarm(2, Config{
		Tables:    core.Config{SingleSize: 16, MultipleSize: 16, CachingSize: 8},
		Seed:      1,
		MaxActive: 1,
		MaxQueue:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	entry, peer := f.Proxies[0], f.Proxies[1]

	// Forwarded miss: the entry's learned location is the peer, which
	// believes it holds the object itself and so fetches it from the origin.
	teachLocation(entry, 1, peer.ID())
	teachLocation(peer, 1, peer.ID())
	if code := stormGet(t, entry, 1, "pop-miss"); code != http.StatusOK {
		t.Fatalf("forwarded miss: status %d", code)
	}
	// Hit: a copy planted in the entry's cache.
	entry.mu.Lock()
	entry.adc.Tables().ForceCache(2, entry.ID(), entry.adc.LocalTime(), 0)
	entry.store[2] = Payload(2)
	entry.mu.Unlock()
	if code := stormGet(t, entry, 2, "pop-hit"); code != http.StatusOK {
		t.Fatalf("hit: status %d", code)
	}
	if got := entry.Stats().LocalHits; got != 1 {
		t.Fatalf("LocalHits = %d, want the planted hit", got)
	}
	// Failed fetch: the learned location is a killed peer, and with health
	// probing off nothing retries.
	teachLocation(entry, 3, peer.ID())
	if err := peer.Kill(); err != nil {
		t.Fatal(err)
	}
	if code := stormGet(t, entry, 3, "pop-fail"); code != http.StatusBadGateway {
		t.Fatalf("failed fetch: status %d, want 502", code)
	}
	// Shed: the entry's one active slot is taken.
	if !entry.gate.enter() {
		t.Fatal("the gate refused its only slot")
	}
	code := stormGet(t, entry, 4, "pop-shed")
	entry.gate.leave()
	if code != http.StatusTooManyRequests {
		t.Fatalf("shed: status %d, want 429", code)
	}

	// A server span closes just after its reply is written.
	waitFor(t, 5*time.Second, "every server span", func() bool {
		return stageCounts(t, entry)[metrics.StageServer] == 4 && stageCounts(t, peer)[metrics.StageServer] == 1
	})
	for _, tc := range []struct {
		p    *Proxy
		want [metrics.NumStages]uint64
	}{
		{entry, [metrics.NumStages]uint64{
			metrics.StageServer: 4, metrics.StageGateWait: 4, metrics.StageForward: 1}},
		{peer, [metrics.NumStages]uint64{
			metrics.StageServer: 1, metrics.StageOrigin: 1}},
	} {
		if got := stageCounts(t, tc.p); got != tc.want {
			t.Errorf("%v stage counts %v, want %v (server, gate_wait, flight_wait, forward, origin)", tc.p.ID(), got, tc.want)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close() //nolint:errcheck // read side
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHealthzJSON checks the probe endpoint's JSON body carries identity
// and build info while still answering 200 for status-code-only probers.
func TestHealthzJSON(t *testing.T) {
	f := tracedFarm(t, 2, FaultTolerance{})
	resp, err := http.Get(f.Proxies[1].URL() + healthzPath)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var body healthzBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	_ = resp.Body.Close()
	if body.Status != "ok" || body.Proxy != "Proxy[1]" || body.Go == "" {
		t.Errorf("healthz body = %+v", body)
	}
	if body.UptimeS < 0 {
		t.Errorf("negative uptime %v", body.UptimeS)
	}
}

// TestProberToleratesBothHealthzForms: the health monitor's probe must
// accept the pre-JSON bare-"ok" body and the JSON body alike — it contracts
// on the status code only, so mixed-version farms keep probing each other.
func TestProberToleratesBothHealthzForms(t *testing.T) {
	bare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer bare.Close()
	jsonSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(healthzBody{Status: "ok", Proxy: "Proxy[9]"})
	}))
	defer jsonSrv.Close()

	cfg := HealthConfig{Enabled: true, ProbeInterval: time.Hour, FailureThreshold: 3}.withDefaults()
	m := newHealthMonitor(cfg, ids.NodeID(0), map[ids.NodeID]string{
		ids.NodeID(0): "http://unused",
		ids.NodeID(1): bare.URL,
		ids.NodeID(2): jsonSrv.URL,
	}, func(ids.NodeID) bool { return false })
	defer m.close()
	if !m.probe(ids.NodeID(1), bare.URL) {
		t.Error("probe rejected the bare-ok healthz form")
	}
	if !m.probe(ids.NodeID(2), jsonSrv.URL) {
		t.Error("probe rejected the JSON healthz form")
	}
}

// TestTraceReconstructionCleanFarm: with tracing on and no faults, every
// request reconstructs into a complete cross-proxy tree.
func TestTraceReconstructionCleanFarm(t *testing.T) {
	f := tracedFarm(t, 4, FaultTolerance{})
	const n = 150
	for i := 0; i < n; i++ {
		if _, err := f.Get(i%len(f.Proxies), ids.ObjectID(i%23+1), "t-"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A handler's server span is recorded a hair after the client sees the
	// response body; let the last handlers finish.
	time.Sleep(50 * time.Millisecond)

	trees := obs.BuildSpanTrees(obs.MergeDumps(traceDumps(f)))
	c := obs.CensusSpanTrees(trees)
	if c.Trees != n {
		t.Fatalf("reconstructed %d trees, want %d (one per request)", c.Trees, n)
	}
	if c.Complete != n {
		for _, tr := range trees {
			if tr.State() != obs.TreeComplete {
				var b strings.Builder
				obs.FormatSpanTree(&b, tr)
				t.Errorf("non-complete tree:\n%s", b.String())
			}
		}
		t.Fatalf("census = %+v, want all complete", c)
	}
	// Forwarding happened, so some trees must span multiple proxies.
	multi := 0
	for _, tr := range trees {
		nodes := map[int32]bool{}
		var walk func(n *obs.SpanNode)
		walk = func(n *obs.SpanNode) {
			nodes[n.Node] = true
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		walk(tr.Root)
		if len(nodes) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no tree spans more than one proxy; cross-proxy propagation is broken")
	}
}

// TestTraceSampling: 1-in-N sampling traces ~requests/N entry requests and
// leaves the rest without spans.
func TestTraceSampling(t *testing.T) {
	f, err := NewFarm(2, Config{
		Tables:  core.Config{SingleSize: 64, MultipleSize: 64, CachingSize: 16},
		Seed:    3,
		Tracing: Tracing{SampleEvery: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck // test teardown
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := f.Get(i%2, ids.ObjectID(i%7+1), "s-"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	c := obs.CensusSpanTrees(obs.BuildSpanTrees(obs.MergeDumps(traceDumps(f))))
	// Each proxy samples its own entry stream 1-in-5; 50 entries each.
	if want := n / 5; c.Trees != want {
		t.Errorf("sampled %d trees, want %d", c.Trees, want)
	}
	if c.Orphaned != 0 {
		t.Errorf("census = %+v; sampling must not orphan trees", c)
	}
}

// TestChaosTraceNoOrphans kills and restarts a proxy under traced load and
// asserts the reconstruction invariant the telemetry-smoke CI gate rides
// on: kills may truncate trees (spans with errors) but never orphan them.
func TestChaosTraceNoOrphans(t *testing.T) {
	f := tracedFarm(t, 4, FaultTolerance{
		Health: HealthConfig{
			Enabled:          true,
			ProbeInterval:    20 * time.Millisecond,
			FailureThreshold: 2,
		},
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected while the victim is down; the trees
				// must still account for every span.
				_, _ = f.Get((w+i)%len(f.Proxies), ids.ObjectID(i%31+1),
					"c"+strconv.Itoa(w)+"-"+strconv.Itoa(i))
			}
		}(w)
	}

	victim := f.Proxies[1]
	time.Sleep(100 * time.Millisecond)
	if err := victim.Kill(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "victim recovery", func() bool {
		return f.Proxies[0].health.Load().state(victim.ID()) == PeerUp
	})
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Late losers of hedges/retries may still be writing spans.
	time.Sleep(100 * time.Millisecond)

	c := obs.CensusSpanTrees(obs.BuildSpanTrees(obs.MergeDumps(traceDumps(f))))
	if c.Trees == 0 {
		t.Fatal("no trees reconstructed")
	}
	if c.Orphaned != 0 {
		t.Errorf("census = %+v: kills must truncate trees, not orphan them", c)
	}
	if got := c.CompleteFraction(); got < 0.99 {
		t.Errorf("complete+truncated fraction = %.4f, want >= 0.99 (census %+v)", got, c)
	}
	t.Logf("chaos census: %+v", c)
}
