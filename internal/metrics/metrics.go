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
// use; only its client driver records into it, so no locking is needed.
type Collector struct {
	// window and hopsWindow are the moving averages the series samples;
	// nil unless the collector samples a series (sampleEvery > 0).
	window     *stats.MovingAverage
	hopsWindow *stats.MovingAverage
	windowSize int

	requests uint64
	hits     uint64
	hopsSum  uint64
	pathLens stats.Online

	sampleEvery uint64
	expected    uint64
	series      []Point

	// response accumulates per-request response times in virtual ticks
	// (all 0 under the zero-cost sequential runtime).
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
}

// Option configures a Collector.
type Option func(*Collector)

// WithWindow overrides the moving-average window size (default 5000). The
// windows exist only on a collector that samples a series.
func WithWindow(size int) Option {
	return func(c *Collector) { c.windowSize = size }
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
// P99Response). Off by default. The histogram stores counts only up to the
// highest bucket a response reached, so unreached buckets cost nothing.
func WithResponseHistogram(buckets, width int) Option {
	return func(c *Collector) { c.respHist = stats.NewHistogram(buckets, width) }
}

// NewCollector returns a ready Collector. The moving-average windows (two
// rings of the window size, 80 KB at the default 5000) and the series are
// built only when the collector samples: a collector built with
// WithSampleEvery(0) keeps running totals and nothing per request.
func NewCollector(opts ...Option) *Collector {
	c := &Collector{sampleEvery: DefaultWindow, windowSize: DefaultWindow}
	for _, opt := range opts {
		opt(c)
	}
	if c.sampleEvery > 0 {
		c.window = stats.NewMovingAverage(c.windowSize)
		c.hopsWindow = stats.NewMovingAverage(c.windowSize)
		if c.expected > 0 {
			c.series = make([]Point, 0, c.expected/c.sampleEvery)
		}
	}
	return c
}

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
	c.hopsSum += uint64(hops)
	c.pathLens.Add(float64(pathLen))
	if c.sampleEvery == 0 {
		return
	}
	c.window.Add(h)
	c.hopsWindow.Add(float64(hops))
	if c.requests%c.sampleEvery == 0 {
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
// engine's clock delta between injection and reply).
func (c *Collector) RecordResponse(vticks int64) {
	c.response.Add(float64(vticks))
	if c.respHist != nil {
		c.respHist.Add(int(vticks))
	}
}

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

// Series returns the collected time-series samples. The returned slice is
// owned by the collector and must not be mutated.
func (c *Collector) Series() []Point { return c.series }

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
	// ticks; zero unless the run priced its links, as vtime does.
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
		MeanResponse: c.response.Mean(),
		MaxResponse:  c.response.Max(),
		Timeouts:     c.timeouts,
		Retries:      c.retries,
		Abandoned:    c.abandoned,
		StaleReplies: c.staleReplies,
	}
}
