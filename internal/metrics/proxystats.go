package metrics

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

	// BreakerDenied counts upstream fetches refused without a connection
	// because the health monitor held the destination peer down.
	BreakerDenied uint64

	// HedgedFetches counts entry chains that started a parallel
	// direct-origin hedge after HedgeDelay.
	HedgedFetches uint64

	// HedgeWins counts hedged chains where the hedge's answer was used.
	HedgeWins uint64
}

// Add accumulates other into s, for cluster-wide totals.
func (s *ProxyStats) Add(other ProxyStats) {
	s.Requests += other.Requests
	s.LocalHits += other.LocalHits
	s.ForwardLearned += other.ForwardLearned
	s.ForwardRandom += other.ForwardRandom
	s.ForwardOrigin += other.ForwardOrigin
	s.LoopsDetected += other.LoopsDetected
	s.RepliesSeen += other.RepliesSeen
	s.CacheInsertions += other.CacheInsertions
	s.CacheEvictions += other.CacheEvictions
	s.ExpiredPending += other.ExpiredPending
	s.StaleInvalidated += other.StaleInvalidated
	s.UnexpectedReplies += other.UnexpectedReplies
	s.Shed += other.Shed
	s.CoalescedMisses += other.CoalescedMisses
	s.ReplicaPushes += other.ReplicaPushes
	s.ReplicaDrops += other.ReplicaDrops
	s.ReplicaHits += other.ReplicaHits
	s.RetriedFetches += other.RetriedFetches
	s.FailoverOrigin += other.FailoverOrigin
	s.BreakerDenied += other.BreakerDenied
	s.HedgedFetches += other.HedgedFetches
	s.HedgeWins += other.HedgeWins
}

// LocalHitRate returns LocalHits/Requests for this proxy.
func (s *ProxyStats) LocalHitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.LocalHits) / float64(s.Requests)
}
