package metrics

import "github.com/adc-sim/adc/internal/promtext"

// ProxyStats counts the per-proxy events the cluster report aggregates:
// how many requests each agent saw, how often its own cache answered, and
// how its forwarding decisions were made. These feed the load-balance checks
// in the integration tests (self-organization should spread load roughly
// evenly, §I).
type ProxyStats struct {
	// Requests is the number of requests the proxy received.
	Requests uint64

	// LocalHits is the number of requests answered from the local cache.
	LocalHits uint64

	// ForwardLearned counts forwards that used a mapping-table entry.
	ForwardLearned uint64

	// ForwardRandom counts forwards that fell back to random selection.
	ForwardRandom uint64

	// ForwardOrigin counts forwards to the origin server (loops, hop
	// bound, or THIS-entries whose object is not cached locally).
	ForwardOrigin uint64

	// LoopsDetected counts requests that arrived while already pending.
	LoopsDetected uint64

	// RepliesSeen counts backwarding replies that passed through.
	RepliesSeen uint64

	// CacheInsertions counts promotions into the caching table.
	CacheInsertions uint64

	// CacheEvictions counts demotions out of the caching table.
	CacheEvictions uint64

	// ExpiredPending counts loop-detection pending passes retired by the
	// recovery TTL because their reply never came back (fault-injected
	// runs with recovery enabled only).
	ExpiredPending uint64

	// StaleInvalidated counts mapping entries demoted because a forward
	// to their learned location went unanswered past the pending TTL —
	// the crash-aware fallback to random forwarding.
	StaleInvalidated uint64

	// UnexpectedReplies counts replies whose request ID had no live
	// pending entry (expired, or a duplicate from a retransmitted
	// chain); they are forwarded but never touch loop-detection state.
	UnexpectedReplies uint64

	// Shed counts entry requests rejected with 429 by admission
	// control because the proxy's bounded queue was full (HTTP farm).
	Shed uint64

	// CoalescedMisses counts entry misses that shared a concurrent
	// in-flight upstream fetch instead of launching their own
	// (singleflight on the HTTP farm's miss path).
	CoalescedMisses uint64

	// ReplicaPushes counts hot-object replicas this proxy pushed to a
	// recent requester (piggybacked on a backwarding reply).
	ReplicaPushes uint64

	// ReplicaDrops counts cold replica copies this proxy shed back
	// toward stock ADC's single-location convergence.
	ReplicaDrops uint64

	// ReplicaHits counts local cache hits served from a pushed replica
	// copy — requests the stock protocol would have concentrated on the
	// object's single converged location.
	ReplicaHits uint64

	// RetriedFetches counts entry-chain retries after a failed upstream
	// chain (HTTP farm fault tolerance; entry proxies only).
	RetriedFetches uint64

	// FailoverOrigin counts entry chains that fell back to a direct
	// origin fetch after exhausting retries.
	FailoverOrigin uint64

	// PeerDownRefusals counts upstream fetches refused without a
	// connection because the health monitor held the destination peer
	// down.
	PeerDownRefusals uint64

	// HedgedFetches counts entry chains that started a parallel
	// direct-origin hedge after HedgeDelay.
	HedgedFetches uint64

	// HedgeWins counts hedged chains where the hedge's answer was used.
	HedgeWins uint64
}

// row is one field of a signal struct S (ProxyStats, Gauges) and the
// /metrics sample that exposes it. Rows sharing a family name are adjacent
// and differ by label.
type row[S any, V uint64 | float64] struct {
	name, help string
	label      promtext.Label // set only on the adc_forwards_total rows
	field      func(*S) *V
}

// counter is one ProxyStats field and the /metrics counter sample that
// exposes it.
type counter = row[ProxyStats, uint64]

const forwardsHelp = "Upstream forwards by routing decision."

// counters holds one row per ProxyStats field, in struct order: the only
// list of the counters, walked by Add, WriteProm and ReadProm.
var counters = [...]counter{
	{"adc_requests_total", "Requests received (entry and forwarded hops).", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.Requests }},
	{"adc_local_hits_total", "Requests answered from the local cache.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.LocalHits }},
	{"adc_forwards_total", forwardsHelp, promtext.L("route", "learned"), func(s *ProxyStats) *uint64 { return &s.ForwardLearned }},
	{"adc_forwards_total", forwardsHelp, promtext.L("route", "random"), func(s *ProxyStats) *uint64 { return &s.ForwardRandom }},
	{"adc_forwards_total", forwardsHelp, promtext.L("route", "origin"), func(s *ProxyStats) *uint64 { return &s.ForwardOrigin }},
	{"adc_loops_detected_total", "Requests that arrived while already pending here.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.LoopsDetected }},
	{"adc_replies_total", "Backwarding replies processed (Receive_Reply).", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.RepliesSeen }},
	{"adc_cache_insertions_total", "Promotions into the caching table.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.CacheInsertions }},
	{"adc_cache_evictions_total", "Demotions out of the caching table.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.CacheEvictions }},
	{"adc_expired_pending_total", "Pending passes retired by the recovery TTL (simulator recovery only).", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.ExpiredPending }},
	{"adc_stale_invalidated_total", "Mapping entries demoted because their location was down.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.StaleInvalidated }},
	{"adc_unexpected_replies_total", "Replies with no live pending entry (simulator recovery only).", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.UnexpectedReplies }},
	{"adc_shed_total", "Entry requests rejected 429 by admission control.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.Shed }},
	{"adc_coalesced_misses_total", "Entry misses that shared an in-flight upstream fetch.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.CoalescedMisses }},
	{"adc_replica_pushes_total", "Hot-object replicas pushed to recent requesters.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.ReplicaPushes }},
	{"adc_replica_drops_total", "Cold replica copies shed.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.ReplicaDrops }},
	{"adc_replica_hits_total", "Local hits served from a pushed replica.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.ReplicaHits }},
	{"adc_retried_fetches_total", "Entry-chain retries after a failed upstream chain.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.RetriedFetches }},
	{"adc_failover_origin_total", "Entry chains that fell back to a direct origin fetch.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.FailoverOrigin }},
	{"adc_peer_down_refusals_total", "Fetches refused without a connection because the peer is held down.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.PeerDownRefusals }},
	{"adc_hedged_fetches_total", "Entry chains that started a parallel origin hedge.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.HedgedFetches }},
	{"adc_hedge_wins_total", "Hedged chains whose hedge answer was used.", promtext.Label{}, func(s *ProxyStats) *uint64 { return &s.HedgeWins }},
}

// labels is the row's sample labels: none, or its one label.
func (r *row[S, V]) labels() []promtext.Label {
	if r.label.Name == "" {
		return nil
	}
	return []promtext.Label{r.label}
}

// writeRows writes s's value for every row, declaring each family through
// declare (pw.Counter or pw.Gauge) before its first row.
func writeRows[S any, V uint64 | float64](pw *promtext.Writer, declare func(name, help string), rows []row[S, V], s *S) {
	for i := range rows {
		r := &rows[i]
		if i == 0 || rows[i-1].name != r.name {
			declare(r.name, r.help)
		}
		pw.Sample(float64(*r.field(s)), r.labels()...)
	}
}

// readRows is writeRows' inverse: the rows' values a parsed /metrics page
// holds, with a missing sample read as 0.
func readRows[S any, V uint64 | float64](d *promtext.Document, rows []row[S, V]) S {
	var s S
	for i := range rows {
		v, _ := d.Value(rows[i].name, rows[i].labels()...)
		*rows[i].field(&s) = V(v)
	}
	return s
}

// Add accumulates other into s, for cluster-wide totals.
func (s *ProxyStats) Add(other ProxyStats) {
	for i := range counters {
		*counters[i].field(s) += *counters[i].field(&other)
	}
}

// WriteProm writes every counter to a /metrics page.
func (s *ProxyStats) WriteProm(pw *promtext.Writer) { writeRows(pw, pw.Counter, counters[:], s) }

// ReadProm is WriteProm's inverse: the counters a parsed /metrics page
// holds, with a missing sample read as 0.
func ReadProm(d *promtext.Document) ProxyStats { return readRows(d, counters[:]) }
