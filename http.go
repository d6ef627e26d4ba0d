package adc

import (
	"fmt"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/httpproxy"
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
	// Seed drives random peer selection.
	Seed int64
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
	farm, err := httpproxy.NewFarm(cfg.Proxies, httpproxy.Config{
		Tables: core.Config{
			SingleSize:   cfg.SingleTable,
			MultipleSize: cfg.MultipleTable,
			CachingSize:  cfg.CachingTable,
		},
		Seed: cfg.Seed,
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

// Run drives the farm with a workload from a single client, returning the
// observed hit statistics.
func (f *HTTPFarm) Run(src Source, seed int64) (requests, hits uint64, err error) {
	col, err := f.farm.RunWorkload(sourceAdapter{src}, seed)
	if err != nil {
		return 0, 0, err
	}
	return col.Requests(), col.Hits(), nil
}

// OriginResolved counts requests the origin server answered.
func (f *HTTPFarm) OriginResolved() uint64 { return f.farm.Origin.Resolved() }

// Close shuts down every server in the farm.
func (f *HTTPFarm) Close() error { return f.farm.Close() }
