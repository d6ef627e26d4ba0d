package httpproxy

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/promtext"
)

// Telemetry endpoints, registered on every proxy's mux alongside the
// /debug/* surface:
//
//	/metrics       Prometheus text exposition (internal/promtext)
//	/debug/trace   this proxy's span ring as an obs.SpanDump JSON document
//	/healthz       liveness probe, JSON with identity and build info
//
// /metrics snapshots the same counters and gauges as /debug/vars, both
// defined once in internal/metrics, plus what /debug/vars does not carry:
// the replication controller's set sizes, the health monitor's probe
// totals and peer states, and the per-stage latency histograms; cmd/adctop
// renders it live, the telemetry-smoke CI job lints it on every proxy.

const (
	metricsPath = "/metrics"
	tracePath   = "/debug/trace"
)

// Families /metrics carries beside the counter, gauge and stage tables of
// internal/metrics. ProxyInfoFamily's one sample names the proxy in its
// "proxy" label; PeerStateFamily has one sample per peer, labelled "peer",
// whose value is the PeerState this proxy's health monitor holds for it.
const (
	ProxyInfoFamily = "adc_proxy_info"
	PeerStateFamily = "adc_peer_state"
)

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	stats := p.Stats()
	gauges := p.gauges()
	p.mu.Lock()
	peers := slices.Clone(p.adc.Peers())
	replicating, tracked, held := p.adc.Replicating()
	p.mu.Unlock()

	pw := promtext.NewWriter(w)
	pw.Gauge(ProxyInfoFamily, "Proxy identity and build info; value is always 1.")
	pw.Sample(1,
		promtext.L("proxy", p.id.String()),
		promtext.L("go", runtime.Version()),
		promtext.L("revision", buildRevision()),
	)
	stats.WriteProm(pw)
	gauges.WriteProm(pw)
	if replicating {
		pw.Gauge("adc_replication_tracked", "Cached objects with replication involvement here, examined at each window roll.")
		pw.Sample(float64(tracked))
		pw.Gauge("adc_replication_held", "Objects this proxy holds as a pushed replica.")
		pw.Sample(float64(held))
	}
	if m := p.health.Load(); m != nil {
		m.writeProm(pw, peers)
	}
	if p.spans != nil {
		pw.Counter("adc_trace_spans_dropped_total", "Spans evicted from the bounded trace ring.")
		pw.Sample(float64(p.spans.Dropped()))
	}
	p.stages.WriteProm(pw)
	_ = pw.Flush()
}

// writeProm writes the monitor's probe and detection totals, and the state
// it holds for each of peers but itself, to a /metrics page.
func (m *healthMonitor) writeProm(pw *promtext.Writer, peers []ids.NodeID) {
	m.mu.Lock()
	totals := [...]struct {
		name, help string
		n          uint64
	}{
		{"adc_health_probes_total", "Health probes sent to peers.", m.probes},
		{"adc_health_probe_failures_total", "Health probes that failed.", m.probeFails},
		{"adc_health_detections_total", "Peers marked down.", m.detections},
		{"adc_health_recoveries_total", "Down peers readmitted as up.", m.recoveries},
	}
	m.mu.Unlock()
	for _, t := range totals {
		pw.Counter(t.name, t.help)
		pw.Sample(float64(t.n))
	}
	pw.Gauge(PeerStateFamily, "Peer health: 0 up, 1 suspect, 2 down, 3 recovering.")
	for _, peer := range peers {
		if peer != m.self {
			pw.Sample(float64(m.state(peer)), promtext.L("peer", peer.String()))
		}
	}
}

// gauges snapshots the proxy's levels for /metrics and /debug/vars; the
// table state is read in one snapshot under p.mu.
func (p *Proxy) gauges() metrics.Gauges {
	p.mu.Lock()
	tables := p.adc.Tables()
	g := metrics.Gauges{
		LocalTime:   float64(p.adc.LocalTime()),
		TableLen:    float64(tables.Len()),
		CachingLen:  float64(tables.Caching().Len()),
		MultipleLen: float64(tables.Multiple().Len()),
		SingleLen:   float64(tables.Single().Len()),
		StoreLen:    float64(len(p.store)),
		PendingLen:  float64(len(p.pending)),
		Peers:       float64(len(p.adc.Peers())),
	}
	p.mu.Unlock()
	g.UptimeSeconds = time.Since(p.started).Seconds()
	g.QueueDepth = float64(p.gate.depth())
	g.TraceSpans = float64(p.spans.Len())
	return g
}

// handleTrace serves the span ring as JSON (obs.SpanDump).
func (p *Proxy) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(p.TraceDump())
}

// ScrapeTraceDump fetches one proxy's /debug/trace over HTTP and stamps
// ScrapedUs with the scrape midpoint, so obs.MergeDumps can shift the
// dump's spans onto the scraper's clock to within half a round-trip.
// base is the proxy's base URL (Proxy.URL or any reachable address).
func ScrapeTraceDump(client *http.Client, base string) (obs.SpanDump, error) {
	before := time.Now().UnixMicro()
	resp, err := client.Get(strings.TrimRight(base, "/") + tracePath)
	if err != nil {
		return obs.SpanDump{}, fmt.Errorf("httpproxy: scrape %s: %w", base, err)
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	if resp.StatusCode != http.StatusOK {
		return obs.SpanDump{}, fmt.Errorf("httpproxy: scrape %s: status %d", base, resp.StatusCode)
	}
	// The after-stamp must land before the (potentially slow) JSON parse of
	// a large ring, or parse time would masquerade as clock skew.
	body, err := readBody(resp)
	after := time.Now().UnixMicro()
	if err != nil {
		return obs.SpanDump{}, fmt.Errorf("httpproxy: scrape %s: %w", base, err)
	}
	var d obs.SpanDump
	if err := json.Unmarshal(body, &d); err != nil {
		return obs.SpanDump{}, fmt.Errorf("httpproxy: scrape %s: %w", base, err)
	}
	d.ScrapedUs = (before + after) / 2
	return d, nil
}

// healthzBody is the /healthz response document. The health prober only
// checks the status code, so the body is free to carry identity — which
// lets an operator (or the chaos harness) confirm WHICH process answered
// on a port that may have been restarted.
type healthzBody struct {
	Status   string  `json:"status"`
	Proxy    string  `json:"proxy"`
	UptimeS  float64 `json:"uptime_s"`
	Go       string  `json:"go"`
	Revision string  `json:"revision,omitempty"`
}

// buildRevision returns the VCS revision baked into the binary, "" when
// built outside a checkout (go test, stripped builds).
var buildRevision = sync.OnceValue(func() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			if len(s.Value) > 12 {
				return s.Value[:12]
			}
			return s.Value
		}
	}
	return ""
})

// handleHealthz is the liveness probe target: it answers before any lock,
// so it reports "process accepting connections", nothing more. The JSON
// body identifies the process; probers needing only liveness read the
// status code (the pre-JSON form returned bare "ok" — the prober accepts
// both).
func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(healthzBody{
		Status:   "ok",
		Proxy:    p.id.String(),
		UptimeS:  time.Since(p.started).Seconds(),
		Go:       runtime.Version(),
		Revision: buildRevision(),
	})
}
