package adc

import (
	"io"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
)

// Tracer records per-hop request-path events — inject, forward, cache hit,
// origin resolve, backward, deliver, drop, timeout, retry — during a
// simulation. Construct one with NewTracer, pass it in Config.Tracer, run,
// then export with WriteTrace: cmd/adctrace reads the file, and its -chrome
// flag turns it into a Chrome trace (one process per request, one row per
// node). A nil Tracer disables tracing at zero cost:
// the hot paths check a nil pointer and skip all event assembly. The
// HTTP farm records spans instead, at each proxy's /debug/trace
// (adcload -trace-sample).
type Tracer = obs.Tracer

// NewTracer returns a tracer recording every event kind.
func NewTracer() *Tracer { return obs.New() }

// WriteTrace checks t's recorded events against the event schema and
// writes them as a span dump, the file the adctrace tool reads: one dump
// named "sim" holding a span per attempt (inject or retry to its delivery
// or timeout) and a zero-duration span per hop, one tree per request.
// Events without a request ID are left out.
func WriteTrace(w io.Writer, t *Tracer) error {
	events := t.Events()
	if err := obs.Validate(events); err != nil {
		return err
	}
	return obs.WriteSpanDumps(w, []obs.SpanDump{{Proxy: "sim", Node: int32(ids.None), Spans: obs.EventSpans(events)}})
}

// TimeBucket is one fixed-width virtual-time window of run metrics,
// collected when Config.MetricsEvery > 0. Occupancy and Cached have one
// entry per proxy, snapshotted as the bucket sealed: total mapping-table
// entries and cached objects respectively.
type TimeBucket struct {
	// Start and End bound the window in virtual ticks: [Start, End).
	Start, End int64
	// Injected, Completed and Hits count requests entering the system,
	// finishing, and finishing from a proxy cache inside the window.
	Injected, Completed, Hits uint64
	// HitRate is Hits/Completed; MeanHops the mean hop count of the
	// window's completions; MeanGap the mean inter-injection gap.
	HitRate  float64
	MeanHops float64
	MeanGap  float64
	// Timeouts, Retries, Abandoned and Drops are the window's fault and
	// recovery event counts.
	Timeouts, Retries, Abandoned, Drops uint64
	// Occupancy and Cached are per-proxy table sizes at the window end.
	Occupancy []int
	Cached    []int
}

func convertBuckets(bs []metrics.Bucket) []TimeBucket {
	if len(bs) == 0 {
		return nil
	}
	out := make([]TimeBucket, 0, len(bs))
	for _, b := range bs {
		out = append(out, TimeBucket{
			Start:     b.Start,
			End:       b.End,
			Injected:  b.Injected,
			Completed: b.Completed,
			Hits:      b.Hits,
			HitRate:   b.HitRate(),
			MeanHops:  b.MeanHops(),
			MeanGap:   b.MeanGap(),
			Timeouts:  b.Timeouts,
			Retries:   b.Retries,
			Abandoned: b.Abandoned,
			Drops:     b.Drops,
			Occupancy: b.Occupancy,
			Cached:    b.Cached,
		})
	}
	return out
}
