// Package metrics collects the evaluation measurements the paper reports:
// hit rate (cumulative and as a moving average over the last 5000 requests,
// §V.2.1), hops per request (§V.2.2), and wall-clock processing time
// (§V.3.3), together with time-series samples for figure regeneration.
package metrics

import (
	"time"

	"github.com/adc-sim/adc/internal/stats"
)

// DefaultWindow is the moving-average window the paper uses for hit-rate
// curves: "the average hit rate as a moving average over the last 5000
// requests" (§V.2.1).
const DefaultWindow = 5000

// Point is one time-series sample, keyed by the number of completed
// requests. HitRate and Hops are window averages; CumHitRate and CumHops are
// running totals since the start of the run.
type Point struct {
	Requests   uint64
	HitRate    float64
	CumHitRate float64
	Hops       float64
	CumHops    float64
}

// Collector accumulates per-request outcomes. It is not safe for concurrent
// use; on the agents runtime only the single client driver observes
// completions, so no locking is needed.
type Collector struct {
	window     *stats.MovingAverage
	hopsWindow *stats.MovingAverage

	requests uint64
	hits     uint64
	hopsSum  uint64
	hopsHist *stats.Histogram
	pathLens *stats.Online

	sampleEvery uint64
	expected    uint64
	series      []Point

	// response accumulates per-request response times in virtual ticks
	// when the run executes on the virtual-time engine.
	response stats.Online

	// respHist optionally buckets response times so tail quantiles (p99)
	// can be read; nil unless WithResponseHistogram was given.
	respHist *stats.Histogram

	// Recovery-protocol counters (fault-injected runs only; all zero in
	// the paper-faithful lossless mode).
	retries      uint64
	timeouts     uint64
	abandoned    uint64
	staleReplies uint64

	started time.Time
	elapsed time.Duration
}

// Option configures a Collector.
type Option func(*Collector)

// WithWindow overrides the moving-average window size (default 5000).
func WithWindow(size int) Option {
	return func(c *Collector) {
		c.window = stats.NewMovingAverage(size)
		c.hopsWindow = stats.NewMovingAverage(size)
	}
}

// WithSampleEvery records one series Point per n completed requests.
// n == 0 disables series collection (summary only).
func WithSampleEvery(n uint64) Option {
	return func(c *Collector) { c.sampleEvery = n }
}

// WithExpectedRequests declares how many requests the run will record, so
// the series slice is allocated once at its final capacity instead of
// growing append by append on the hot path.
func WithExpectedRequests(n uint64) Option {
	return func(c *Collector) { c.expected = n }
}

// WithResponseHistogram buckets virtual-time response samples into buckets
// bins of the given tick width, enabling tail quantiles (Summary.
// P99Response). Off by default: per-client histograms are not free at a
// million clients.
func WithResponseHistogram(buckets, width int) Option {
	return func(c *Collector) { c.respHist = stats.NewHistogram(buckets, width) }
}

// NewCollector returns a ready Collector. Options apply before the default
// windows are allocated, so a WithWindow override pays for exactly one pair
// of rings — with a million per-client collectors in a sharded run, eagerly
// allocating the 5000-slot defaults first would burn ~80 KB of garbage per
// client before the option even ran.
func NewCollector(opts ...Option) *Collector {
	c := &Collector{
		hopsHist:    stats.NewHistogram(32, 1),
		pathLens:    &stats.Online{},
		sampleEvery: DefaultWindow,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.window == nil {
		c.window = stats.NewMovingAverage(DefaultWindow)
		c.hopsWindow = stats.NewMovingAverage(DefaultWindow)
	}
	if c.expected > 0 && c.sampleEvery > 0 {
		c.series = make([]Point, 0, c.expected/c.sampleEvery)
	}
	return c
}

// Start marks the beginning of the measured run.
func (c *Collector) Start() { c.started = time.Now() }

// Stop records the total elapsed wall-clock time.
func (c *Collector) Stop() { c.elapsed = time.Since(c.started) }

// Record accounts one completed request: whether a proxy cache served it,
// how many message transfers it took, and how many proxies the forwarding
// path visited.
func (c *Collector) Record(hit bool, hops, pathLen int) {
	c.requests++
	h := 0.0
	if hit {
		c.hits++
		h = 1.0
	}
	c.window.Add(h)
	c.hopsWindow.Add(float64(hops))
	c.hopsSum += uint64(hops)
	c.hopsHist.Add(hops)
	c.pathLens.Add(float64(pathLen))

	if c.sampleEvery > 0 && c.requests%c.sampleEvery == 0 {
		c.series = append(c.series, Point{
			Requests:   c.requests,
			HitRate:    c.window.Value(),
			CumHitRate: c.CumHitRate(),
			Hops:       c.hopsWindow.Value(),
			CumHops:    c.CumHops(),
		})
	}
}

// RecordResponse accounts one request's virtual response time (the
// virtual-time engine's clock delta between injection and reply).
func (c *Collector) RecordResponse(vticks int64) {
	c.response.Add(float64(vticks))
	if c.respHist != nil {
		c.respHist.Add(int(vticks))
	}
}

// Response exposes the response-time accumulator (mean/min/max in virtual
// ticks; empty unless the run used the virtual-time engine).
func (c *Collector) Response() *stats.Online { return &c.response }

// ResponseHistogram returns the bucketed response-time distribution, or nil
// when WithResponseHistogram was not given.
func (c *Collector) ResponseHistogram() *stats.Histogram { return c.respHist }

// RecordTimeout accounts one request attempt whose reply did not arrive
// within the recovery timeout (whether it is then retried or abandoned).
func (c *Collector) RecordTimeout() { c.timeouts++ }

// RecordRetry accounts one retransmission of a timed-out request.
func (c *Collector) RecordRetry() { c.retries++ }

// RecordAbandoned accounts one request given up on after exhausting its
// retry budget — a permanently stranded chain from the client's view.
func (c *Collector) RecordAbandoned() { c.abandoned++ }

// RecordStaleReply accounts a reply that arrived for a request the client
// no longer has outstanding (a duplicate from a retransmitted chain).
func (c *Collector) RecordStaleReply() { c.staleReplies++ }

// Timeouts returns the number of request-attempt timeouts.
func (c *Collector) Timeouts() uint64 { return c.timeouts }

// Retries returns the number of retransmissions.
func (c *Collector) Retries() uint64 { return c.retries }

// Abandoned returns the number of requests given up on.
func (c *Collector) Abandoned() uint64 { return c.abandoned }

// StaleReplies returns the number of duplicate/late replies discarded.
func (c *Collector) StaleReplies() uint64 { return c.staleReplies }

// Requests returns the number of completed requests.
func (c *Collector) Requests() uint64 { return c.requests }

// Hits returns the number of requests served by a proxy cache.
func (c *Collector) Hits() uint64 { return c.hits }

// CumHitRate returns hits/requests over the whole run.
func (c *Collector) CumHitRate() float64 {
	if c.requests == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.requests)
}

// CumHops returns the mean hops per request over the whole run.
func (c *Collector) CumHops() float64 {
	if c.requests == 0 {
		return 0
	}
	return float64(c.hopsSum) / float64(c.requests)
}

// WindowHitRate returns the current moving-average hit rate.
func (c *Collector) WindowHitRate() float64 { return c.window.Value() }

// WindowHops returns the current moving-average hops per request.
func (c *Collector) WindowHops() float64 { return c.hopsWindow.Value() }

// Elapsed returns the wall-clock duration between Start and Stop.
func (c *Collector) Elapsed() time.Duration { return c.elapsed }

// Series returns the collected time-series samples. The returned slice is
// owned by the collector and must not be mutated.
func (c *Collector) Series() []Point { return c.series }

// HopsHistogram returns the distribution of per-request hop counts.
func (c *Collector) HopsHistogram() *stats.Histogram { return c.hopsHist }

// MeanPathLen returns the mean number of proxies on the forwarding path.
func (c *Collector) MeanPathLen() float64 { return c.pathLens.Mean() }

// Summary is an immutable snapshot of a finished run, suitable for tables.
type Summary struct {
	Requests uint64
	Hits     uint64
	HitRate  float64
	Hops     float64
	PathLen  float64
	Elapsed  time.Duration
	// MeanResponse/MaxResponse are virtual-time response times in
	// ticks; zero unless the run used the virtual-time engine.
	MeanResponse float64
	MaxResponse  float64
	// P99Response is the 99th-percentile response time in ticks; zero
	// unless the run enabled the response histogram.
	P99Response float64
	// Recovery-protocol counters; all zero in lossless runs.
	Timeouts     uint64
	Retries      uint64
	Abandoned    uint64
	StaleReplies uint64
}

// Summary snapshots the collector.
func (c *Collector) Summary() Summary {
	p99 := 0.0
	if c.respHist != nil {
		p99 = c.respHist.Quantile(0.99)
	}
	return Summary{
		P99Response:  p99,
		Requests:     c.requests,
		Hits:         c.hits,
		HitRate:      c.CumHitRate(),
		Hops:         c.CumHops(),
		PathLen:      c.MeanPathLen(),
		Elapsed:      c.elapsed,
		MeanResponse: c.response.Mean(),
		MaxResponse:  c.response.Max(),
		Timeouts:     c.timeouts,
		Retries:      c.retries,
		Abandoned:    c.abandoned,
		StaleReplies: c.staleReplies,
	}
}
