package httpproxy

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/protocol"
	"github.com/adc-sim/adc/internal/workload"
)

// Farm is a complete running HTTP proxy system: N ADC proxies plus an
// origin server, all on loopback ports.
type Farm struct {
	Origin  *Origin
	Proxies []*Proxy

	// client is the farm's client side: one pooled client shared by
	// every Get (it used to be a fresh unpooled client per request).
	client *http.Client
}

// FarmConfig assembles a farm.
type FarmConfig struct {
	// Proxies is the array size.
	Proxies int
	// Tables sizes each proxy's mapping tables.
	Tables core.Config
	// MaxHops bounds forwarding (0 = unbounded).
	MaxHops int
	// Seed drives the proxies' random peer selection.
	Seed int64
	// MaxActive/MaxQueue bound each proxy's admission gate
	// (see Config; 0 = defaults, negative = unlimited / no queue).
	MaxActive int
	MaxQueue  int
	// NoCoalesce disables per-proxy miss coalescing.
	NoCoalesce bool
	// Replication configures hot-object replication on every proxy
	// (zero value = stock ADC).
	Replication protocol.Replication
	// FaultTolerance configures health probing, failover routing, retries
	// and hedging on every proxy (zero value = all off).
	FaultTolerance FaultTolerance
	// Tracing configures cross-proxy span tracing on every proxy
	// (zero value = off).
	Tracing Tracing
}

// NewFarm starts the origin and all proxies and wires the peer address
// book. Close the farm when done.
func NewFarm(cfg FarmConfig) (*Farm, error) {
	if cfg.Proxies <= 0 {
		return nil, fmt.Errorf("httpproxy: farm needs at least one proxy, got %d", cfg.Proxies)
	}
	origin, err := NewOrigin()
	if err != nil {
		return nil, err
	}
	f := &Farm{Origin: origin, client: sharedClient}
	for i := 0; i < cfg.Proxies; i++ {
		p, err := NewProxy(Config{
			ID:             ids.NodeID(i),
			Tables:         cfg.Tables,
			OriginURL:      origin.URL(),
			MaxHops:        cfg.MaxHops,
			Seed:           cfg.Seed,
			MaxActive:      cfg.MaxActive,
			MaxQueue:       cfg.MaxQueue,
			NoCoalesce:     cfg.NoCoalesce,
			Replication:    cfg.Replication,
			FaultTolerance: cfg.FaultTolerance,
			Tracing:        cfg.Tracing,
		})
		if err != nil {
			f.Close() //nolint:errcheck // already on the error path
			return nil, err
		}
		f.Proxies = append(f.Proxies, p)
	}
	book := make(map[ids.NodeID]string, cfg.Proxies)
	for _, p := range f.Proxies {
		book[p.ID()] = p.URL()
	}
	for _, p := range f.Proxies {
		p.SetPeers(book)
	}
	return f, nil
}

// Partition cuts all traffic (fetches and probes) between proxies a and b
// in both directions — one partition edge of the chaos harness. Indices
// out of range are ignored.
func (f *Farm) Partition(a, b int) {
	if a < 0 || b < 0 || a >= len(f.Proxies) || b >= len(f.Proxies) || a == b {
		return
	}
	f.Proxies[a].blockPeer(f.Proxies[b].ID())
	f.Proxies[b].blockPeer(f.Proxies[a].ID())
}

// Heal reverses Partition.
func (f *Farm) Heal(a, b int) {
	if a < 0 || b < 0 || a >= len(f.Proxies) || b >= len(f.Proxies) || a == b {
		return
	}
	f.Proxies[a].unblockPeer(f.Proxies[b].ID())
	f.Proxies[b].unblockPeer(f.Proxies[a].ID())
}

// HealthTransitions merges every proxy's health-transition log, sorted by
// time. The chaos harness derives time-to-detect and time-to-recover from
// it: the first down-transition for a killed peer, the first up-transition
// after its restart.
func (f *Farm) HealthTransitions() []HealthTransition {
	var all []HealthTransition
	for _, p := range f.Proxies {
		all = append(all, p.HealthTransitions()...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].At.Before(all[j].At) })
	return all
}

// TraceDumps snapshots every proxy's span ring in-process — the
// local-farm counterpart of scraping each proxy's /debug/trace. All
// proxies share this process's clock, so no ScrapedUs alignment is set.
func (f *Farm) TraceDumps() []obs.SpanDump {
	out := make([]obs.SpanDump, 0, len(f.Proxies))
	for _, p := range f.Proxies {
		out = append(out, p.TraceDump())
	}
	return out
}

// TotalStats aggregates every proxy's counters.
func (f *Farm) TotalStats() metrics.ProxyStats {
	var total metrics.ProxyStats
	for _, p := range f.Proxies {
		s := p.Stats()
		total.Add(s)
	}
	return total
}

// Close shuts down every server in the farm without cutting a request it
// has admitted. Every proxy first stops admitting entry requests, and the
// admitted ones are answered while all the proxies and the origin still
// serve their hops; then the servers shut down gracefully, the origin
// last.
func (f *Farm) Close() error {
	deadline := time.Now().Add(shutdownTimeout)
	for _, p := range f.Proxies {
		p.draining.Store(true)
	}
	for _, p := range f.Proxies {
		p.awaitEntries(deadline)
	}
	var firstErr error
	for _, p := range f.Proxies {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if f.Origin != nil {
		if err := f.Origin.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Get fetches one object through the given proxy, verifying payload
// integrity against the canonical origin payload. It returns whether a
// proxy cache served the request.
func (f *Farm) Get(proxyIdx int, obj ids.ObjectID, reqID string) (hit bool, err error) {
	p := f.Proxies[proxyIdx]
	req, err := http.NewRequest(http.MethodGet, ObjectURL(p.URL(), obj), nil)
	if err != nil {
		return false, err
	}
	req.Header.Set(HeaderRequestID, reqID)
	resp, err := f.client.Do(req)
	if err != nil {
		return false, fmt.Errorf("httpproxy: get %v: %w", obj, err)
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	body, err := readBody(resp)
	if err != nil {
		return false, fmt.Errorf("httpproxy: get %v: %w", obj, err)
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("httpproxy: get %v: status %d (%s)", obj, resp.StatusCode, body)
	}
	if want := Payload(obj); string(body) != string(want) {
		return false, fmt.Errorf("httpproxy: payload corruption for %v: got %q want %q", obj, body, want)
	}
	return resp.Header.Get(HeaderOrigin) != "1", nil
}

// RunWorkload drives the farm with a request stream from a single client,
// choosing a random entry proxy per request, and collects hit metrics.
func (f *Farm) RunWorkload(src workload.Source, seed int64) (*metrics.Collector, error) {
	col := metrics.NewCollector(metrics.WithSampleEvery(0))
	rng := rand.New(rand.NewSource(seed))
	counter := 0
	for {
		obj, ok := src.Next()
		if !ok {
			return col, nil
		}
		counter++
		hit, err := f.Get(rng.Intn(len(f.Proxies)), obj, "c0-"+strconv.Itoa(counter))
		if err != nil {
			return nil, err
		}
		// Hops are not modelled at the HTTP layer; record 0.
		col.Record(hit, 0, 0)
	}
}
