package httpproxy

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/metrics"
)

// Live introspection endpoints, registered on every proxy's mux:
//
//	/debug/vars     counters and table occupancy as a JSON document
//	/debug/tables   the three mapping tables in the paper's dump layout;
//	                ?check=1 runs CheckInvariants instead ("ok" or 500)
//	/debug/pprof/   the standard Go profiler surface
//
// All of them read under p.mu, so they observe a consistent snapshot even
// while the farm is serving traffic.

// debugVars is the /debug/vars document. Its scalar fields are the
// gauges /metrics exposes, under metrics.Gauges' JSON keys.
type debugVars struct {
	ID string `json:"id"`
	metrics.Gauges
	Stats metrics.ProxyStats `json:"stats"`

	// Replication is present when the hot-object replication controller
	// is enabled: its live tracked and held set sizes (the replica
	// counters are in Stats).
	Replication *replicationVars `json:"replication,omitempty"`

	// Health is present when the fault-tolerance layer is enabled: probe
	// counters, detection/recovery totals and every peer's current state.
	Health *HealthVars `json:"health,omitempty"`
}

// replicationVars is the replication section of /debug/vars.
type replicationVars struct {
	Tracked int `json:"tracked"`
	Held    int `json:"held"`
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
	v := debugVars{ID: p.id.String(), Stats: p.Stats(), Gauges: p.gauges()}
	p.mu.Lock()
	if on, tracked, held := p.adc.Replicating(); on {
		v.Replication = &replicationVars{Tracked: tracked, Held: held}
	}
	p.mu.Unlock()
	// Outside p.mu: the monitor carries its own lock.
	if m := p.health.Load(); m != nil {
		v.Health = m.vars()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleTables dumps the mapping tables, or with ?check=1 runs
// CheckInvariants and answers "ok" or 500 with the violation.
func (p *Proxy) handleTables(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.URL.Query().Get("check") == "1" {
		if err := p.CheckInvariants(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = io.WriteString(w, "ok\n")
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	_ = p.adc.Tables().Dump(w, p.adc.LocalTime())
}

// CheckInvariants checks, in one snapshot under p.mu, the mapping tables
// and replica sets (protocol.Agent.CheckInvariants) and that the payload
// store holds exactly the caching table's objects.
func (p *Proxy) CheckInvariants() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.adc.CheckInvariants(); err != nil {
		return fmt.Errorf("httpproxy: %v: %w", p.id, err)
	}
	caching := p.adc.Tables().Caching()
	if caching.Len() != len(p.store) {
		return fmt.Errorf("httpproxy: %v stores %d payloads for %d caching-table entries", p.id, len(p.store), caching.Len())
	}
	var err error
	caching.Each(func(e *core.Entry) bool {
		if _, ok := p.store[e.Object]; !ok {
			err = fmt.Errorf("httpproxy: %v caches %v but stores no payload for it", p.id, e.Object)
		}
		return err == nil
	})
	return err
}
