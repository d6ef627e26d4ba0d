package main

import (
	"encoding/json"
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json: the single definition of a
// metric's name, unit and direction. Bound is the share of the parent's
// median an end-to-end metric may worsen by; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one driver run measures. A run also pays three
// set-ups (median reported), so the slowest workload (farm_churn) takes
// about 1.7× this in wall time; 92 runs fit the 3420 s cap with room.
const runSeconds = 10

var workloads = []workloadDef{
	{"sim_paper", "paper §V.2 closed-loop run at 20k/20k/10k tables: sim dispatch + proxy decisions + core tables do all the work, httpproxy and net/http none"},
	{"sim_shift_open", "64 Poisson open-loop clients over a shifting hot set: deep event heap, timers and table demotion/promotion churn; catches a closed-loop gain paid for by the timer or churn path"},
	{"farm_hot", "HTTP farm, Zipf over 500 objects that all fit the caches (hit rate ~1): per-request fixed cost (net/http, headers, p.mu) is everything, tables and origin nothing"},
	{"farm_churn", "HTTP farm, working set far above the 5,000 cache slots (hit rate ~0.4): multi-hop chains, origin fetches, body copies, store inserts and evictions dominate"},
}

// endToEnd lists what a user of the simulator or the farm sees. Every one
// is defined on every workload (see README.md for the per-workload
// definitions) and none can read 0. The timing bounds are as wide as the
// contract allows because the reference sandbox drifts by 10-15% over
// minutes (README.md, "A/A"); the exact simulated values get tight ones.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"latency_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"hit_rate", "ratio", "higher", 0.03},
	{"hops", "count", "lower", 0.03},
	{"ok_share", "ratio", "higher", 0.001},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the layer budget, named after the modules. A layer that
// does no work in a workload (sim.* on the farm, httpproxy.* in the
// simulator) reports 0 there and is left out of the printed table.
var perLayer = []metricDef{
	{Name: "workload.next_ns_per_req", Unit: "ns", Better: "lower"},

	{Name: "sim.build_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.events_per_req", Unit: "count", Better: "lower"},
	{Name: "sim.self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.floor_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.client_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "sim.origin_ns_per_msg", Unit: "ns", Better: "lower"},

	{Name: "proxy.handle_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "proxy.msgs_per_req", Unit: "count", Better: "lower"},
	{Name: "proxy.local_hits_per_req", Unit: "count", Better: "higher"},
	{Name: "proxy.forward_learned_per_req", Unit: "count", Better: "lower"},
	{Name: "proxy.forward_random_per_req", Unit: "count", Better: "lower"},
	{Name: "proxy.forward_origin_per_req", Unit: "count", Better: "lower"},
	{Name: "proxy.loops_per_req", Unit: "count", Better: "lower"},
	{Name: "proxy.cache_insertions_per_req", Unit: "count", Better: "lower"},
	{Name: "proxy.cache_evictions_per_req", Unit: "count", Better: "lower"},
	{Name: "proxy.learned_forward_share", Unit: "ratio", Better: "higher"},

	{Name: "core.update_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.update_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.lookup_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.promotions_per_op", Unit: "count", Better: "higher"},
	{Name: "core.cache_evictions_per_op", Unit: "count", Better: "lower"},

	{Name: "httpproxy.client_span_us_p50", Unit: "us", Better: "lower"},
	{Name: "httpproxy.client_span_us_p99", Unit: "us", Better: "lower"},
	{Name: "httpproxy.forward_span_us_p50", Unit: "us", Better: "lower"},
	{Name: "httpproxy.forward_span_us_p99", Unit: "us", Better: "lower"},
	{Name: "httpproxy.origin_span_us_p50", Unit: "us", Better: "lower"},
	{Name: "httpproxy.origin_span_us_p99", Unit: "us", Better: "lower"},
	{Name: "httpproxy.entry_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "httpproxy.hop_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "httpproxy.forwards_per_req", Unit: "count", Better: "lower"},
	{Name: "httpproxy.origin_fetches_per_req", Unit: "count", Better: "lower"},
	{Name: "httpproxy.chain_len_mean", Unit: "count", Better: "lower"},
	{Name: "httpproxy.chain_len_max", Unit: "count", Better: "lower"},
	{Name: "httpproxy.local_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "httpproxy.forward_learned_per_req", Unit: "count", Better: "lower"},
	{Name: "httpproxy.forward_random_per_req", Unit: "count", Better: "lower"},
	{Name: "httpproxy.forward_origin_per_req", Unit: "count", Better: "lower"},
	{Name: "httpproxy.loops_per_req", Unit: "count", Better: "lower"},
	{Name: "httpproxy.cache_insertions_per_req", Unit: "count", Better: "lower"},
	{Name: "httpproxy.cache_evictions_per_req", Unit: "count", Better: "lower"},
	{Name: "httpproxy.coalesced_per_req", Unit: "count", Better: "higher"},
	{Name: "httpproxy.shed_per_req", Unit: "count", Better: "lower"},

	{Name: "nethttp.null_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "origin.rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "httpproxy.local_hit_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "budget.residual_us", Unit: "us", Better: "lower"},

	{Name: "process.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "process.bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.cpu_us_per_req", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// manifest renders BENCHMARK.json from the tables above, so the file at
// the root of the repo is generated (`bench/run.sh -manifest`) and the
// smoke test only has to check that it is current.
func manifest() ([]byte, error) {
	// A per-layer entry has no bound key.
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// report is the outcome of one run of one workload.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Values    map[string]float64
	// Notes are human-readable lines: failed checks first (each makes
	// Correct false), then sample counts and calibration constants.
	Notes []string
}

func newReport() *report {
	return &report{Correct: true, Values: make(map[string]float64)}
}

// fail records a failed output check.
func (r *report) fail(msg string) {
	r.Correct = false
	r.Notes = append(r.Notes, "CHECK FAILED: "+msg)
}

func (r *report) note(msg string) { r.Notes = append(r.Notes, msg) }

// resultLine is the driver contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line selects the metrics the driver expects for this kind of run: every
// end-to-end metric untraced, every per-layer metric traced. A value the
// run did not produce, or one JSON cannot carry, fails the run.
func (r *report) line(traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultLine{Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.Values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric " + d.Name + " missing or not finite")
			v = 0
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	out.Correct = r.Correct
	return out
}

// median returns the middle of xs (mean of the two middles for even n); 0
// for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-th quantile of sorted by nearest rank; 0 for an
// empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which the driver uses to judge spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
