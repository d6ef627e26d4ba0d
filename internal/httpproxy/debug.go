package httpproxy

import (
	"encoding/json"
	"hash/fnv"
	"net/http"
	"net/http/pprof"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
)

// Live introspection endpoints, registered on every proxy's mux:
//
//	/debug/vars     counters and table occupancy as a JSON document
//	/debug/tables   the three mapping tables in the paper's dump layout
//	/debug/pprof/   the standard Go profiler surface
//
// All of them read under p.mu, so they observe a consistent snapshot even
// while the farm is serving traffic.

// debugVars is the /debug/vars document.
type debugVars struct {
	ID          string             `json:"id"`
	LocalTime   int64              `json:"local_time"`
	Stats       metrics.ProxyStats `json:"stats"`
	TableLen    int                `json:"table_len"`
	CachingLen  int                `json:"caching_len"`
	MultipleLen int                `json:"multiple_len"`
	SingleLen   int                `json:"single_len"`
	StoreLen    int                `json:"store_len"`
	PendingLen  int                `json:"pending_len"`
	Peers       int                `json:"peers"`
	QueueDepth  int64              `json:"queue_depth"`

	// Replication is present when the hot-object replication controller
	// is enabled: the push/drop/hit counters (duplicated from Stats for
	// quick grepping) plus the controller's live tracked-set size.
	Replication *replicationVars `json:"replication,omitempty"`

	// Health is present when the fault-tolerance layer is enabled: probe
	// counters, detection/recovery totals and every peer's current state.
	Health *HealthVars `json:"health,omitempty"`

	// Breakers lists currently open or half-open per-peer circuits
	// (present only while at least one circuit is tripped).
	Breakers []BreakerVar `json:"breakers,omitempty"`
}

// replicationVars is the replication section of /debug/vars.
type replicationVars struct {
	Pushes  uint64 `json:"pushes"`
	Drops   uint64 `json:"drops"`
	Hits    uint64 `json:"hits"`
	Tracked int    `json:"tracked"`
	Held    int    `json:"held"`
}

// registerDebug wires the introspection handlers into a proxy's mux.
func registerDebug(mux *http.ServeMux, p *Proxy) {
	mux.HandleFunc("/debug/vars", p.handleVars)
	mux.HandleFunc("/debug/tables", p.handleTables)
	mux.HandleFunc(metricsPath, p.handleMetrics)
	mux.HandleFunc(tracePath, p.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func (p *Proxy) handleVars(w http.ResponseWriter, r *http.Request) {
	// Stats() folds in the off-lock shed/coalescing counters.
	stats := p.Stats()
	p.mu.Lock()
	tables := p.adc.Tables()
	v := debugVars{
		ID:          p.id.String(),
		LocalTime:   p.adc.LocalTime(),
		Stats:       stats,
		TableLen:    tables.Len(),
		CachingLen:  tables.Caching().Len(),
		MultipleLen: tables.Multiple().Len(),
		SingleLen:   tables.Single().Len(),
		StoreLen:    len(p.store),
		PendingLen:  len(p.pending),
		Peers:       len(p.adc.Peers()),
		QueueDepth:  p.gate.depth(),
	}
	if on, tracked, held := p.adc.Replicating(); on {
		v.Replication = &replicationVars{
			Pushes:  stats.ReplicaPushes,
			Drops:   stats.ReplicaDrops,
			Hits:    stats.ReplicaHits,
			Tracked: tracked,
			Held:    held,
		}
	}
	p.mu.Unlock()
	// Outside p.mu: monitor and breakers carry their own locks.
	if m := p.health.Load(); m != nil {
		v.Health = m.vars()
	}
	v.Breakers = p.breakers.snapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (p *Proxy) handleTables(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	p.mu.Lock()
	defer p.mu.Unlock()
	_ = p.adc.Tables().Dump(w, p.adc.LocalTime())
}

// HashRequestID folds a wire request-ID string into a trace RequestID via
// FNV-1a. The HTTP protocol uses opaque string IDs, the trace model 64-bit
// ones; the hash keeps every hop of one request under one key. Zero (the
// "untraced" sentinel) is remapped so real requests never vanish.
func HashRequestID(s string) ids.RequestID {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	v := h.Sum64()
	if v == 0 {
		v = 1
	}
	return ids.RequestID(v)
}
