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
// /metrics snapshots the same counters as /debug/vars plus the per-stage
// latency histograms; cmd/adctop renders it live, the telemetry-smoke CI
// job lints it on every proxy.

const (
	metricsPath = "/metrics"
	tracePath   = "/debug/trace"
)

// stageBoundsUs are the finite bucket upper bounds (microseconds) /metrics
// exposes for the stage latency histograms. All are multiples of the
// underlying 50 µs bucket width, so stats.Histogram.CountBelow is exact at
// every bound; observations past 200 ms land only in +Inf.
var stageBoundsUs = []int{100, 250, 500, 1000, 2500, 5000, 10_000, 25_000, 50_000, 100_000, 200_000}

// peerStateGauge maps PeerState to the adc_peer_state gauge encoding.
func peerStateGauge(s PeerState) float64 { return float64(s) }

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	stats := p.Stats()
	p.mu.Lock()
	localTime := p.adc.LocalTime()
	storeLen := len(p.store)
	peers := slices.Clone(p.adc.Peers())
	p.mu.Unlock()

	pw := promtext.NewWriter(w)
	counter := func(name, help string, v uint64) {
		pw.Counter(name, help)
		pw.Sample(float64(v))
	}
	gauge := func(name, help string, v float64) {
		pw.Gauge(name, help)
		pw.Sample(v)
	}

	pw.Gauge("adc_proxy_info", "Proxy identity and build info; value is always 1.")
	pw.Sample(1,
		promtext.L("proxy", p.id.String()),
		promtext.L("go", runtime.Version()),
		promtext.L("revision", buildRevision()),
	)
	gauge("adc_uptime_seconds", "Seconds since this proxy started.", time.Since(p.started).Seconds())

	counter("adc_requests_total", "Requests received (entry and forwarded hops).", stats.Requests)
	counter("adc_local_hits_total", "Requests answered from the local cache.", stats.LocalHits)
	counter("adc_replies_total", "Backwarding replies processed (Receive_Reply).", stats.RepliesSeen)
	pw.Counter("adc_forwards_total", "Upstream forwards by routing decision.")
	pw.Sample(float64(stats.ForwardLearned), promtext.L("route", "learned"))
	pw.Sample(float64(stats.ForwardRandom), promtext.L("route", "random"))
	pw.Sample(float64(stats.ForwardOrigin), promtext.L("route", "origin"))
	counter("adc_loops_detected_total", "Requests that arrived while already pending here.", stats.LoopsDetected)
	counter("adc_cache_insertions_total", "Promotions into the caching table.", stats.CacheInsertions)
	counter("adc_cache_evictions_total", "Demotions out of the caching table.", stats.CacheEvictions)
	counter("adc_shed_total", "Entry requests rejected 429 by admission control.", stats.Shed)
	counter("adc_coalesced_misses_total", "Entry misses that shared an in-flight upstream fetch.", stats.CoalescedMisses)
	counter("adc_stale_invalidated_total", "Mapping entries demoted because their location was down.", stats.StaleInvalidated)
	counter("adc_retried_fetches_total", "Entry-chain retries after a failed upstream chain.", stats.RetriedFetches)
	counter("adc_failover_origin_total", "Entry chains that fell back to a direct origin fetch.", stats.FailoverOrigin)
	counter("adc_breaker_denied_total", "Fetches rejected by an open circuit breaker.", stats.BreakerDenied)
	counter("adc_hedged_fetches_total", "Entry chains that started a parallel origin hedge.", stats.HedgedFetches)
	counter("adc_hedge_wins_total", "Hedged chains whose hedge answer was used.", stats.HedgeWins)
	if p.replicating {
		counter("adc_replica_pushes_total", "Hot-object replicas pushed to recent requesters.", stats.ReplicaPushes)
		counter("adc_replica_drops_total", "Cold replica copies shed.", stats.ReplicaDrops)
		counter("adc_replica_hits_total", "Local hits served from a pushed replica.", stats.ReplicaHits)
	}

	gauge("adc_cache_objects", "Payloads currently stored.", float64(storeLen))
	gauge("adc_queue_depth", "Entry requests waiting at the admission gate.", float64(p.gate.depth()))
	gauge("adc_local_time", "The proxy's logical clock (requests processed under lock).", float64(localTime))

	if m := p.health.Load(); m != nil {
		pw.Gauge("adc_peer_state", "Peer health: 0 up, 1 suspect, 2 down, 3 recovering.")
		for _, peer := range peers {
			if peer == p.id {
				continue
			}
			pw.Sample(peerStateGauge(m.state(peer)), promtext.L("peer", peer.String()))
		}
	}
	if p.breakers != nil {
		// Declared whenever breakers exist; series appear only while a
		// circuit is tripped (closed breakers are the silent default).
		pw.Gauge("adc_breaker_state", "Tripped circuit breakers: 1 half-open, 2 open.")
		for _, b := range p.breakers.snapshot() {
			v := 2.0
			if b.State == "half-open" {
				v = 1.0
			}
			pw.Sample(v, promtext.L("peer", b.Peer))
		}
	}
	if p.spans != nil {
		gauge("adc_trace_spans", "Spans buffered in the /debug/trace ring.", float64(p.spans.Len()))
		counter("adc_trace_spans_dropped_total", "Spans evicted from the bounded trace ring.", p.spans.Dropped())
	}

	pw.HistogramFamily("adc_stage_latency_seconds",
		"Serving latency by stage: server, gate_wait, flight_wait, forward, origin.")
	snap := p.stages.Snapshot()
	bounds := make([]float64, len(stageBoundsUs))
	for i, us := range stageBoundsUs {
		bounds[i] = float64(us) / 1e6
	}
	for st := metrics.Stage(0); st < metrics.NumStages; st++ {
		h := snap[st]
		cum := make([]uint64, len(stageBoundsUs))
		for i, us := range stageBoundsUs {
			cum[i] = h.CountBelow(us)
		}
		pw.Histogram(bounds, cum, h.Total(), float64(h.Sum())/1e6, promtext.L("stage", st.String()))
	}
	_ = pw.Flush()
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

// Uptime reports how long this proxy has been running.
func (p *Proxy) Uptime() time.Duration { return time.Since(p.started) }
