package metrics

import (
	"sync"

	"github.com/adc-sim/adc/internal/promtext"
)

// Stage names one phase of serving a request on the HTTP farm. It is the
// only list of the stages: the per-stage latency histograms behind every
// proxy's /metrics endpoint key on it, a farm span's stage is its String,
// and cmd/adctop's p50/p99 columns are one Stage each.
type Stage uint8

const (
	// StageServer is the whole in-proxy handling of one incoming request,
	// entry or forwarded hop — the end-to-end server-side latency.
	StageServer Stage = iota
	// StageGateWait is time an entry request spent queued at the
	// admission gate before being served.
	StageGateWait
	// StageFlightWait is time a coalesced entry miss spent riding along
	// on another request's in-flight upstream fetch.
	StageFlightWait
	// StageForward is one upstream fetch to a peer proxy.
	StageForward
	// StageOrigin is one fetch to the origin server (direct misses,
	// failover fallbacks and hedges included).
	StageOrigin

	NumStages
)

// stageNames are the stable label values in /metrics output and the stage
// names of farm spans.
var stageNames = [NumStages]string{
	StageServer:     "server",
	StageGateWait:   "gate_wait",
	StageFlightWait: "flight_wait",
	StageForward:    "forward",
	StageOrigin:     "origin",
}

// String returns the stage's /metrics label value and span stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// stageFamily is the /metrics histogram family of the stage latencies, one
// series per stage label.
const stageFamily = "adc_stage_latency_seconds"

// stageBoundsUs are the upper bounds (microseconds, exclusive) of the stage
// histograms' finite buckets; an interval of 200 ms or more lands only in
// +Inf.
var stageBoundsUs = [...]int64{100, 250, 500, 1000, 2500, 5000, 10_000, 25_000, 50_000, 100_000, 200_000}

// StageSet records per-stage latency histograms for one proxy; the zero
// value is ready. Observe is mutex-guarded and cheap (one lock, one bucket
// increment); handlers call it outside the proxy's table lock so metrics
// recording never serializes the fetch path.
type StageSet struct {
	mu sync.Mutex
	// counts[st][i] is stage st's intervals in bucket i, the last +Inf;
	// sumUs is the sum of its positive intervals.
	counts [NumStages][len(stageBoundsUs) + 1]uint64
	sumUs  [NumStages]uint64
}

// Observe records one latency (in microseconds) for a stage.
func (s *StageSet) Observe(stage Stage, us int64) {
	i := 0
	for i < len(stageBoundsUs) && us >= stageBoundsUs[i] {
		i++
	}
	s.mu.Lock()
	s.counts[stage][i]++
	if us > 0 {
		s.sumUs[stage] += uint64(us)
	}
	s.mu.Unlock()
}

// WriteProm writes every stage's histogram to a /metrics page, in seconds.
func (s *StageSet) WriteProm(pw *promtext.Writer) {
	pw.HistogramFamily(stageFamily, "Serving latency by stage: server, gate_wait, flight_wait, forward, origin.")
	bounds := make([]float64, len(stageBoundsUs))
	for i, us := range stageBoundsUs {
		bounds[i] = float64(us) / 1e6
	}
	s.mu.Lock()
	counts, sumUs := s.counts, s.sumUs
	s.mu.Unlock()
	for st := range counts {
		cum := make([]uint64, len(stageBoundsUs))
		var total uint64
		for i, n := range counts[st] {
			total += n
			if i < len(cum) {
				cum[i] = total
			}
		}
		pw.Histogram(bounds, cum, total, float64(sumUs[st])/1e6, promtext.L("stage", Stage(st).String()))
	}
}

// ReadStages is StageSet.WriteProm's inverse: each stage's cumulative
// buckets on a parsed /metrics page, nil for a stage the page lacks.
func ReadStages(d *promtext.Document) [NumStages][]promtext.Bucket {
	var out [NumStages][]promtext.Bucket
	for st := range out {
		out[st] = d.Buckets(stageFamily, promtext.L("stage", Stage(st).String()))
	}
	return out
}
