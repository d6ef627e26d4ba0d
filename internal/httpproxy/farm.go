package httpproxy

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
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

// NewFarm starts the origin and the given number of proxies, each built
// from a copy of cfg whose ID is the proxy's index and whose OriginURL is
// the farm's origin, and wires the peer address book. Close the farm when
// done.
func NewFarm(proxies int, cfg Config) (*Farm, error) {
	if proxies <= 0 {
		return nil, fmt.Errorf("httpproxy: farm needs at least one proxy, got %d", proxies)
	}
	origin, err := NewOrigin()
	if err != nil {
		return nil, err
	}
	f := &Farm{Origin: origin, client: sharedClient}
	cfg.OriginURL = origin.URL()
	for i := 0; i < proxies; i++ {
		cfg.ID = ids.NodeID(i)
		p, err := NewProxy(cfg)
		if err != nil {
			f.Close() //nolint:errcheck // already on the error path
			return nil, err
		}
		f.Proxies = append(f.Proxies, p)
	}
	book := make(map[ids.NodeID]string, proxies)
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
