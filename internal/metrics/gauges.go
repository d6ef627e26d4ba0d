package metrics

import "github.com/adc-sim/adc/internal/promtext"

// Gauges are one farm proxy's levels at one instant. /metrics exposes each
// field as the gauge its row in the gauges table names and describes, and
// /debug/vars as a scalar field under its JSON key. Every field is a
// float64, the exposition's sample type.
type Gauges struct {
	UptimeSeconds float64 `json:"uptime_s"`
	LocalTime     float64 `json:"local_time"`
	TableLen      float64 `json:"table_len"`
	CachingLen    float64 `json:"caching_len"`
	MultipleLen   float64 `json:"multiple_len"`
	SingleLen     float64 `json:"single_len"`
	StoreLen      float64 `json:"store_len"`
	PendingLen    float64 `json:"pending_len"`
	Peers         float64 `json:"peers"`
	QueueDepth    float64 `json:"queue_depth"`
	TraceSpans    float64 `json:"trace_spans"`
}

// gauge is one Gauges field and the /metrics gauge sample that exposes it.
type gauge = row[Gauges, float64]

// gauges holds one row per Gauges field, in struct order: the only list of
// the gauges, walked by WriteProm and ReadGauges.
var gauges = [...]gauge{
	{"adc_uptime_seconds", "Seconds since this proxy started.", promtext.Label{}, func(g *Gauges) *float64 { return &g.UptimeSeconds }},
	{"adc_local_time", "The proxy's logical clock (requests processed under lock).", promtext.Label{}, func(g *Gauges) *float64 { return &g.LocalTime }},
	{"adc_table_len", "Entries across the three mapping tables.", promtext.Label{}, func(g *Gauges) *float64 { return &g.TableLen }},
	{"adc_caching_len", "Entries in the caching table.", promtext.Label{}, func(g *Gauges) *float64 { return &g.CachingLen }},
	{"adc_multiple_len", "Entries in the multiple-table.", promtext.Label{}, func(g *Gauges) *float64 { return &g.MultipleLen }},
	{"adc_single_len", "Entries in the single-table.", promtext.Label{}, func(g *Gauges) *float64 { return &g.SingleLen }},
	{"adc_cache_objects", "Payloads currently stored.", promtext.Label{}, func(g *Gauges) *float64 { return &g.StoreLen }},
	{"adc_pending_len", "Requests with a backwarding pass pending here.", promtext.Label{}, func(g *Gauges) *float64 { return &g.PendingLen }},
	{"adc_peers", "Proxies in this proxy's peer set, itself included.", promtext.Label{}, func(g *Gauges) *float64 { return &g.Peers }},
	{"adc_queue_depth", "Entry requests waiting at the admission gate.", promtext.Label{}, func(g *Gauges) *float64 { return &g.QueueDepth }},
	{"adc_trace_spans", "Spans buffered in the /debug/trace ring.", promtext.Label{}, func(g *Gauges) *float64 { return &g.TraceSpans }},
}

// WriteProm writes every gauge to a /metrics page.
func (g *Gauges) WriteProm(pw *promtext.Writer) { writeRows(pw, pw.Gauge, gauges[:], g) }

// ReadGauges is Gauges.WriteProm's inverse: the gauges a parsed /metrics
// page holds, with a missing sample read as 0.
func ReadGauges(d *promtext.Document) Gauges { return readRows(d, gauges[:]) }
