package adc

import (
	"fmt"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/httpproxy"
	"github.com/adc-sim/adc/internal/ids"
)

// HTTPFarm is a running ADC proxy system speaking real HTTP on loopback
// ports — the paper's future-work "real proxy system" (§VI). Unlike the
// simulator it transfers actual payload bytes; the mapping tables decide
// which payloads each proxy stores.
type HTTPFarm struct {
	farm *httpproxy.Farm
}

// HTTPFarmConfig assembles an HTTPFarm. Zero table sizes default like
// Config's.
type HTTPFarmConfig struct {
	// Proxies is the array size.
	Proxies int
	// SingleTable, MultipleTable, CachingTable size the mapping tables.
	SingleTable   int
	MultipleTable int
	CachingTable  int
	// MaxHops bounds forwarding (0 = unbounded).
	MaxHops int
	// Seed drives random peer selection.
	Seed int64
	// MaxActive and MaxQueue bound each proxy's admission gate: at most
	// MaxActive entry requests run while MaxQueue more wait; beyond that
	// the proxy sheds with 429. Zero selects the built-in defaults,
	// negative disables the bound (MaxActive) or the queue (MaxQueue).
	MaxActive int
	MaxQueue  int
	// NoCoalesce disables miss coalescing (one upstream fetch shared by
	// concurrent misses on the same cold object).
	NoCoalesce bool
	// Health enables the fault-tolerance layer on every proxy: periodic
	// peer /healthz probes driving an up/suspect/down/recovering state
	// machine, failover routing around down peers, and entry-only retries
	// with an origin fallback.
	Health bool
	// ProbeInterval spaces health probes (0 = default 250ms).
	ProbeInterval time.Duration
	// FailureThreshold is the consecutive-failure count that marks a peer
	// down (0 = default 3).
	FailureThreshold int
	// MaxRetries bounds entry-chain failover retries (0 = default 2,
	// negative = none).
	MaxRetries int
	// HedgeDelay, when positive, starts a parallel direct-origin fetch
	// for entry chains still unresolved after this long (0 = off).
	HedgeDelay time.Duration
	// TraceSample, when positive, enables cross-proxy distributed tracing
	// on every proxy, sampling 1-in-TraceSample entry requests (1 = all).
	// Spans are served at each proxy's /debug/trace for adctrace farm.
	TraceSample int
	// TraceRing caps each proxy's in-memory span ring (0 = default).
	TraceRing int
}

// NewHTTPFarm starts the origin server and all proxies. Close the farm
// when done.
func NewHTTPFarm(cfg HTTPFarmConfig) (*HTTPFarm, error) {
	if cfg.Proxies == 0 {
		cfg.Proxies = 5
	}
	if cfg.SingleTable == 0 {
		cfg.SingleTable = 2_000
	}
	if cfg.MultipleTable == 0 {
		cfg.MultipleTable = 2_000
	}
	if cfg.CachingTable == 0 {
		cfg.CachingTable = 1_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	farm, err := httpproxy.NewFarm(httpproxy.FarmConfig{
		Proxies: cfg.Proxies,
		Tables: core.Config{
			SingleSize:   cfg.SingleTable,
			MultipleSize: cfg.MultipleTable,
			CachingSize:  cfg.CachingTable,
		},
		MaxHops:    cfg.MaxHops,
		Seed:       cfg.Seed,
		MaxActive:  cfg.MaxActive,
		MaxQueue:   cfg.MaxQueue,
		NoCoalesce: cfg.NoCoalesce,
		FaultTolerance: httpproxy.FaultTolerance{
			Health: httpproxy.HealthConfig{
				Enabled:          cfg.Health,
				ProbeInterval:    cfg.ProbeInterval,
				FailureThreshold: cfg.FailureThreshold,
			},
			MaxRetries: cfg.MaxRetries,
			HedgeDelay: cfg.HedgeDelay,
		},
		Tracing: httpproxy.Tracing{
			SampleEvery: cfg.TraceSample,
			RingSize:    cfg.TraceRing,
		},
	})
	if err != nil {
		return nil, err
	}
	return &HTTPFarm{farm: farm}, nil
}

// ProxyURL returns the base URL of the i-th proxy; any HTTP client can GET
// <url>/obj/<id> with an X-Adc-Request-Id header.
func (f *HTTPFarm) ProxyURL(i int) (string, error) {
	if i < 0 || i >= len(f.farm.Proxies) {
		return "", fmt.Errorf("adc: proxy index %d out of range", i)
	}
	return f.farm.Proxies[i].URL(), nil
}

// OriginURL returns the origin server's base URL.
func (f *HTTPFarm) OriginURL() string { return f.farm.Origin.URL() }

// Get fetches one object through the given proxy with payload
// verification; hit reports whether a proxy cache served it. reqID must be
// globally unique per logical request (it drives loop detection).
func (f *HTTPFarm) Get(proxy int, object uint64, reqID string) (hit bool, err error) {
	if proxy < 0 || proxy >= len(f.farm.Proxies) {
		return false, fmt.Errorf("adc: proxy index %d out of range", proxy)
	}
	return f.farm.Get(proxy, ids.ObjectID(object), reqID)
}

// Run drives the farm with a workload from a single client, returning the
// observed hit statistics.
func (f *HTTPFarm) Run(src Source, seed int64) (requests, hits uint64, err error) {
	col, err := f.farm.RunWorkload(sourceAdapter{src}, seed)
	if err != nil {
		return 0, 0, err
	}
	return col.Requests(), col.Hits(), nil
}

// DebugURL returns the live-introspection base of the i-th proxy; append
// /debug/vars (JSON counters and table occupancy), /debug/tables (mapping
// table dump) or /debug/pprof/ (Go profiler).
func (f *HTTPFarm) DebugURL(i int) (string, error) {
	u, err := f.ProxyURL(i)
	if err != nil {
		return "", err
	}
	return u + "/debug", nil
}

// OriginResolved counts requests the origin server answered.
func (f *HTTPFarm) OriginResolved() uint64 { return f.farm.Origin.Resolved() }

// Close shuts down every server in the farm.
func (f *HTTPFarm) Close() error { return f.farm.Close() }
