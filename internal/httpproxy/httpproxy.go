// Package httpproxy is a real HTTP proxy system built on the ADC
// algorithm — the paper's first future-work item ("the creation of a real
// proxy system based on the freely available Squid server", §VI), realised
// on net/http's types with the package's own HTTP/1.1 server, transport
// and head codec instead of Squid.
//
// Each proxy is an HTTP server; clients GET /obj/<id> from any proxy.
// Unlike the simulator (which, like the paper's testbed, "will not cache
// and transfer the actual objects data", §V.1), this farm moves real
// payload bytes: the caching table governs which payloads a proxy stores.
//
// HTTP's call stack plays the role of the backwarding path: a proxy that
// cannot resolve a request forwards it upstream with an http.Client call,
// and the response naturally retraces the chain of waiting handlers, each
// of which hands the reply to the same protocol core the simulator drives
// (internal/protocol) for Receive_Reply (Fig. 7). This package is the HTTP
// driver of that core: it owns what is genuinely HTTP — the payload store,
// the pending set keyed by wire request ID, admission, coalescing, health,
// retries, hedging, spans — and the header codec. The ADC metadata
// travels in headers:
//
//	X-ADC-Request-ID   globally unique ID, for loop detection
//	X-ADC-Forwards     number of proxy forwards so far (max-hops bound)
//	X-ADC-Resolver     the agreed location (empty = origin data)
//	X-ADC-Cached       set once some proxy on the chain stores the object
//	X-ADC-Origin       marks payloads produced by the origin server
package httpproxy

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/obs"
	"github.com/adc-sim/adc/internal/protocol"
)

// Header names of the ADC-over-HTTP protocol.
const (
	HeaderRequestID = "X-Adc-Request-Id"
	HeaderForwards  = "X-Adc-Forwards"
	HeaderResolver  = "X-Adc-Resolver"
	HeaderCached    = "X-Adc-Cached"
	HeaderOrigin    = "X-Adc-Origin"
	// HeaderTrace/HeaderSpan carry the distributed-tracing context (hex
	// trace ID and parent span ID) between proxy hops; see span.go.
	HeaderTrace = "X-Adc-Trace"
	HeaderSpan  = "X-Adc-Span"
)

// objPathPrefix is the URL prefix objects are served under.
const objPathPrefix = "/obj/"

// ObjectURL returns the URL under base (a proxy or origin base URL) that
// serves obj — the client-side counterpart of the /obj/<id> route, for
// external drivers like cmd/adcload.
func ObjectURL(base string, obj ids.ObjectID) string {
	return base + objPathPrefix + strconv.FormatUint(uint64(obj), 10)
}

// parseObjectPath extracts the object ID from /obj/<id>.
func parseObjectPath(path string) (ids.ObjectID, error) {
	rest, ok := strings.CutPrefix(path, objPathPrefix)
	if !ok {
		return 0, fmt.Errorf("httpproxy: path %q not under %s", path, objPathPrefix)
	}
	v, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("httpproxy: bad object id %q: %w", rest, err)
	}
	return ids.ObjectID(v), nil
}

// Origin is the HTTP origin server: it can produce any object. Payloads
// are deterministic functions of the object ID so tests can verify
// end-to-end integrity through the proxy chain.
type Origin struct {
	srv      *server
	resolved atomic.Uint64
}

// Payload returns the canonical payload of an object: "object <id in
// decimal> body: <id·0x9E3779B97F4A7C15 in hex>". It runs on every origin
// fetch and on every reply a client verifies, so it is built with strconv
// rather than fmt.
func Payload(obj ids.ObjectID) []byte {
	const prefix, middle = "object ", " body: "
	b := make([]byte, 0, len(prefix)+20+len(middle)+16)
	b = strconv.AppendUint(append(b, prefix...), uint64(obj), 10)
	return strconv.AppendUint(append(b, middle...), uint64(obj)*0x9E3779B97F4A7C15, 16)
}

// Reply header values the farm sets on every object reply, shared rather
// than allocated per reply. A header map holding one is only ever
// written to the wire.
var (
	textPlain = []string{"text/plain; charset=utf-8"}
	headerOne = []string{"1"}
)

// objectsFirst dispatches /obj/ straight to objects, ahead of mux's
// pattern matching; everything else goes through mux.
func objectsFirst(objects http.HandlerFunc, mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, objPathPrefix) {
			objects(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// NewOrigin starts an origin server on a loopback port.
func NewOrigin() (*Origin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("httpproxy: origin listen: %w", err)
	}
	o := &Origin{}
	o.srv = newServer(ln, objectsFirst(o.handle, http.NewServeMux()))
	go o.srv.serve()
	return o, nil
}

// URL returns the origin's base URL.
func (o *Origin) URL() string { return "http://" + o.srv.ln.Addr().String() }

// Resolved returns how many requests the origin answered.
func (o *Origin) Resolved() uint64 { return o.resolved.Load() }

// Close shuts the origin down gracefully (see shutdown).
func (o *Origin) Close() error { return shutdown(o.srv) }

// shutdownTimeout bounds a graceful shutdown. A request still running
// after it is cut.
const shutdownTimeout = 5 * time.Second

// shutdown stops srv accepting connections, closes its idle ones and
// waits for the requests in flight to be answered, for at most
// shutdownTimeout; then it cuts whatever is left.
func shutdown(srv *server) error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close() //nolint:errcheck // the shutdown error is the one reported
		return fmt.Errorf("httpproxy: graceful shutdown: %w", err)
	}
	return nil
}

func (o *Origin) handle(w http.ResponseWriter, r *http.Request) {
	obj, err := parseObjectPath(r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	o.resolved.Add(1)
	h := w.Header()
	h["Content-Type"] = textPlain
	h[HeaderOrigin] = headerOne
	if _, err := w.Write(Payload(obj)); err != nil {
		return // client went away; nothing to do
	}
}

// Proxy is one ADC agent speaking HTTP. Handlers may run concurrently;
// the protocol core and payload store are guarded by mu, which is never
// held across an upstream fetch (holding it would deadlock on forwarding
// loops, where the same proxy serves two requests of one chain).
//
// The serving path is production-shaped: upstream fetches go through the
// shared pooled transport (client.go), concurrent misses on one object
// collapse into a single upstream fetch (flight.go), and entry-request
// concurrency is bounded with load shedding (gate.go).
type Proxy struct {
	id      ids.NodeID
	self    []string // X-Adc-Resolver's value for a local hit: id.String()
	addr    string   // listen address, stable across Kill/Restart
	url     string
	handler http.Handler      // objects first, then the mux
	rt      http.RoundTripper // every upstream fetch: Config.Client's transport
	origin  string
	maxHops int

	gate     *gate
	flights  flightGroup
	coalesce bool

	// Fault tolerance (all nil/zero when FaultTolerance is disabled, so
	// the hot path pays only nil checks). health is an atomic pointer:
	// it is installed by SetPeers after handlers may already be running.
	ft     FaultTolerance
	health atomic.Pointer[healthMonitor]

	// Telemetry. stages is always on (recording a latency is one mutex +
	// one bucket increment; /metrics pays the snapshot cost, not the hot
	// path). spans is nil with tracing off; spanSeq/traceSeq allocate span
	// and trace IDs off-lock — sampling deliberately does NOT draw from the
	// protocol core's stream, whose sequence is part of seeded-run
	// determinism.
	tracing  Tracing
	spans    *obs.SpanRing
	spanSeq  atomic.Uint64
	traceSeq atomic.Uint64
	stages   *metrics.StageSet
	started  time.Time

	// shed/coalesced are updated off-lock: shedding happens precisely
	// when mu is contended, and a follower's ride-along should not
	// serialize on the table lock just to count itself. The fault
	// tolerance counters below follow the same rule — they count on the
	// failure path, outside the table lock.
	shed      atomic.Uint64
	coalesced atomic.Uint64
	retried   atomic.Uint64
	failover  atomic.Uint64
	denied    atomic.Uint64
	hedged    atomic.Uint64
	hedgeWins atomic.Uint64

	// entries counts entry requests being served; once draining is set,
	// new ones are refused (Farm.Close).
	entries  atomic.Int64
	draining atomic.Bool

	// Partition state for the chaos harness. nblocked short-circuits the
	// per-fetch check to one atomic load while no partition is active.
	nblocked  atomic.Int32
	blockMu   sync.Mutex
	blockedTo map[ids.NodeID]struct{}

	// replicating mirrors Config.Replication.Enabled: only then do forwards
	// carry X-Adc-Sender and arrivals parse it.
	replicating bool

	mu      sync.Mutex
	srv     *server         // current server and listener; replaced by Restart
	killed  bool            // Kill..Restart window (chaos harness)
	adc     *protocol.Agent // the protocol core: tables, rng, clock, counters
	store   map[ids.ObjectID][]byte
	pending map[string]int
	peerURL map[ids.NodeID]string
	names   map[ids.NodeID][]string // each peer's X-Adc-Resolver value
}

// FaultTolerance configures the farm's fault-tolerance layer: peer health
// probing with failover routing (and fetches to a peer the monitor holds
// down refused without a connection), bounded-backoff retries for entry
// requests, and hedged origin fetches. The zero value disables the whole
// layer — routing, fetching and benchmarks behave exactly as without it.
type FaultTolerance struct {
	// Health configures peer probing; Health.Enabled gates the layer.
	Health HealthConfig
	// MaxRetries bounds per-entry-request failover retries after a
	// failed chain (0 = default 2, negative = no retries). Mid-chain
	// hops never retry: exactly one proxy — the entry — owns failover,
	// so a dead peer cannot multiply upstream attempts hop by hop.
	MaxRetries int
	// HedgeDelay, when positive, starts a parallel direct-origin fetch
	// for an entry chain still unresolved after this long, and the first
	// success wins. Set it near the observed forwarding p99: hedges then
	// trade a small duplicate-fetch rate for cutting the timeout tail of
	// chains through a dying peer. 0 disables hedging.
	HedgeDelay time.Duration
}

// defaultEntryRetries is MaxRetries' default; retryBackoff is the first
// entry retry's delay, doubling per attempt.
const (
	defaultEntryRetries = 2
	retryBackoff        = 25 * time.Millisecond
)

// withDefaults normalizes the policy. With Health.Enabled false the whole
// struct collapses to the zero value: no monitor, no retries.
func (ft FaultTolerance) withDefaults() FaultTolerance {
	if !ft.Health.Enabled {
		return FaultTolerance{}
	}
	ft.Health = ft.Health.withDefaults()
	switch {
	case ft.MaxRetries < 0:
		ft.MaxRetries = 0
	case ft.MaxRetries == 0:
		ft.MaxRetries = defaultEntryRetries
	}
	return ft
}

// Config assembles one HTTP proxy.
type Config struct {
	// ID is the proxy's node ID.
	ID ids.NodeID
	// Tables sizes the mapping tables.
	Tables core.Config
	// OriginURL is the origin server's base URL.
	OriginURL string
	// MaxHops bounds proxy forwarding (0 = unbounded).
	MaxHops int
	// Seed drives the random peer selection.
	Seed int64
	// MaxActive bounds concurrently served entry requests
	// (0 = defaultMaxActive, negative = unlimited).
	MaxActive int
	// MaxQueue bounds entry requests waiting for an active slot before
	// shedding kicks in (0 = defaultMaxQueue, negative = no queue).
	MaxQueue int
	// NoCoalesce disables miss coalescing (ablation and tests).
	NoCoalesce bool
	// Replication configures the hot-object replication controller
	// (see internal/protocol; zero value = stock ADC).
	Replication protocol.Replication
	// FaultTolerance configures health probing, failover routing,
	// retries and hedging (zero value = all off).
	FaultTolerance FaultTolerance
	// Tracing configures cross-proxy span tracing (zero value = off).
	Tracing Tracing
	// Client overrides the shared pooled HTTP client (tests). Upstream
	// fetches go straight to its Transport (http.DefaultTransport when
	// nil); they neither follow redirects nor use its Timeout or Jar.
	Client *http.Client
}

// NewProxy starts a proxy on a loopback port. Peers are introduced later
// via SetPeers (all proxies must exist before addresses are known).
func NewProxy(cfg Config) (*Proxy, error) {
	agent, err := protocol.New(protocol.Config{
		ID:          cfg.ID,
		Tables:      cfg.Tables,
		Seed:        cfg.Seed,
		Replication: cfg.Replication,
	})
	if err != nil {
		return nil, fmt.Errorf("httpproxy: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("httpproxy: proxy %v listen: %w", cfg.ID, err)
	}
	client := cfg.Client
	if client == nil {
		client = sharedClient
	}
	rt := client.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	ft := cfg.FaultTolerance.withDefaults()
	p := &Proxy{
		id:       cfg.ID,
		self:     []string{cfg.ID.String()},
		addr:     ln.Addr().String(),
		url:      "http://" + ln.Addr().String(),
		rt:       rt,
		origin:   cfg.OriginURL,
		maxHops:  cfg.MaxHops,
		gate:     newGate(cfg.MaxActive, cfg.MaxQueue),
		coalesce: !cfg.NoCoalesce,
		ft:       ft,
		tracing:  cfg.Tracing,
		stages:   metrics.NewStageSet(),
		started:  time.Now(),
		adc:      agent,
		store:    make(map[ids.ObjectID][]byte),
		pending:  make(map[string]int),
		peerURL:  make(map[ids.NodeID]string),

		replicating: cfg.Replication.Enabled,
	}
	// The payload store is exactly the caching table's membership: bodies
	// go in when the core reports it holds the object, and out here.
	agent.OnEvict(func(obj ids.ObjectID) { delete(p.store, obj) })
	if p.tracing.SampleEvery > 0 {
		p.spans = obs.NewSpanRing(p.tracing.RingSize)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(healthzPath, p.handleHealthz)
	registerDebug(mux, p)
	p.handler = objectsFirst(p.handle, mux)
	p.srv = newServer(ln, p.handler)
	go p.srv.serve()
	return p, nil
}

// Handler exposes the proxy's full mux (object path plus debug endpoints)
// for in-process serving, e.g. under httptest.
func (p *Proxy) Handler() http.Handler { return p.handler }

// URL returns the proxy's base URL, stable across Kill/Restart.
func (p *Proxy) URL() string { return p.url }

// ID returns the proxy's node ID.
func (p *Proxy) ID() ids.NodeID { return p.id }

// SetPeers installs the full peer address book (including this proxy).
func (p *Proxy) SetPeers(urls map[ids.NodeID]string) {
	peers := make([]ids.NodeID, 0, len(urls))
	for id := range urls {
		peers = append(peers, id)
	}
	slices.Sort(peers) // deterministic order for the random selection
	p.mu.Lock()
	defer p.mu.Unlock()
	p.adc.SetPeers(peers)
	p.peerURL = urls
	p.names = make(map[ids.NodeID][]string, len(peers))
	for _, id := range peers {
		p.names[id] = []string{id.String()}
	}
	if p.ft.Health.Enabled && p.health.Load() == nil {
		p.health.Store(newHealthMonitor(p.ft.Health, p.id, urls, p.isBlocked))
	}
}

// Stats snapshots the proxy's counters, folding in the off-lock shed and
// coalescing counts.
func (p *Proxy) Stats() metrics.ProxyStats {
	p.mu.Lock()
	s := p.adc.Stats
	p.mu.Unlock()
	s.Shed = p.shed.Load()
	s.CoalescedMisses = p.coalesced.Load()
	s.RetriedFetches = p.retried.Load()
	s.FailoverOrigin = p.failover.Load()
	s.BreakerDenied = p.denied.Load()
	s.HedgedFetches = p.hedged.Load()
	s.HedgeWins = p.hedgeWins.Load()
	return s
}

// QueueDepth reports how many entry requests are waiting for an admission
// slot right now.
func (p *Proxy) QueueDepth() int64 { return p.gate.depth() }

// CacheLen returns the number of stored payloads.
func (p *Proxy) CacheLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.store)
}

// Close shuts the proxy down, stopping the health monitor first so its
// probe goroutines do not outlive the farm. Requests in flight are
// answered before the server goes (see shutdown); Kill is the crash.
func (p *Proxy) Close() error {
	if m := p.health.Load(); m != nil {
		m.close()
	}
	p.mu.Lock()
	srv := p.srv
	killed := p.killed
	p.mu.Unlock()
	if killed {
		return nil // Kill already closed the listener and server
	}
	return shutdown(srv)
}

// awaitEntries waits, until deadline, for the entry requests being served
// to be answered. With draining set no new ones are admitted, while
// forwards are still served: an admitted request may need this proxy as
// a hop.
func (p *Proxy) awaitEntries(deadline time.Time) {
	for p.entries.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// Kill simulates a process crash for the chaos harness: the listener and
// server close, cutting in-flight requests. The in-memory tables and store
// survive — Restart models a fast process restart on the same port, not a
// cold rejoin — but peers see exactly what a crash looks like: refused
// connections and failed probes.
func (p *Proxy) Kill() error {
	p.mu.Lock()
	if p.killed {
		p.mu.Unlock()
		return nil
	}
	p.killed = true
	srv := p.srv
	p.mu.Unlock()
	// A dead process does not probe; freeze this proxy's own monitor.
	if m := p.health.Load(); m != nil {
		m.pause()
	}
	return srv.Close()
}

// Restart rebinds a killed proxy's listener on its original port and
// resumes serving and probing. The OS may hold the port briefly after
// Kill, so binding retries for up to ~1s.
func (p *Proxy) Restart() error {
	p.mu.Lock()
	if !p.killed {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", p.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("httpproxy: restart %v on %s: %w", p.id, p.addr, err)
	}
	srv := newServer(ln, p.handler)
	p.mu.Lock()
	p.srv = srv
	p.killed = false
	p.mu.Unlock()
	go srv.serve()
	if m := p.health.Load(); m != nil {
		m.resume()
	}
	return nil
}

// Killed reports whether the proxy is inside a Kill..Restart window.
func (p *Proxy) Killed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

// blockPeer cuts this proxy's outbound traffic (fetches and probes) to
// peer — one direction of a chaos partition.
func (p *Proxy) blockPeer(peer ids.NodeID) {
	p.blockMu.Lock()
	if p.blockedTo == nil {
		p.blockedTo = make(map[ids.NodeID]struct{})
	}
	if _, ok := p.blockedTo[peer]; !ok {
		p.blockedTo[peer] = struct{}{}
		p.nblocked.Add(1)
	}
	p.blockMu.Unlock()
}

// unblockPeer heals one direction of a partition.
func (p *Proxy) unblockPeer(peer ids.NodeID) {
	p.blockMu.Lock()
	if _, ok := p.blockedTo[peer]; ok {
		delete(p.blockedTo, peer)
		p.nblocked.Add(-1)
	}
	p.blockMu.Unlock()
}

// isBlocked reports whether outbound traffic to peer is partitioned away.
// The atomic short-circuits the check to one load while no partition is
// active, which is every request of a non-chaos run.
func (p *Proxy) isBlocked(peer ids.NodeID) bool {
	if p.nblocked.Load() == 0 {
		return false
	}
	p.blockMu.Lock()
	_, ok := p.blockedTo[peer]
	p.blockMu.Unlock()
	return ok
}

// HealthState reports this proxy's belief about peer (PeerUp when health
// probing is off).
func (p *Proxy) HealthState(peer ids.NodeID) PeerState {
	if m := p.health.Load(); m != nil {
		return m.state(peer)
	}
	return PeerUp
}

// HealthTransitions returns the monitor's timestamped transition log (nil
// when health probing is off) — the chaos harness's time-to-detect and
// time-to-recover source.
func (p *Proxy) HealthTransitions() []HealthTransition {
	if m := p.health.Load(); m != nil {
		return m.Transitions()
	}
	return nil
}

// handle is Receive_Request (Fig. 5) over HTTP: it parses the request,
// opens the per-proxy telemetry envelope (server span + server-stage
// latency), and delegates the protocol work to serve.
func (p *Proxy) handle(w http.ResponseWriter, r *http.Request) {
	obj, err := parseObjectPath(r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reqID := r.Header.Get(HeaderRequestID)
	if reqID == "" {
		http.Error(w, "missing "+HeaderRequestID, http.StatusBadRequest)
		return
	}
	forwards := 0 // an entry request carries no X-Adc-Forwards
	if v := r.Header.Get(HeaderForwards); v != "" {
		forwards, _ = strconv.Atoi(v)
	}

	sc := p.spanContext(r.Header, forwards)
	start := nowUs()
	decision, errMsg := p.serve(w, r, obj, reqID, forwards, sc)
	p.stages.Observe(metrics.StageServer, nowUs()-start)
	sc.finishServer(start, obj, decision, errMsg)
}

// serve runs one request through admission, the hit path, and the miss
// path. It returns the server span's two annotations: the protocol
// decision — the Arrive or Learn table outcome in the simulator's
// EventSpans wording, formatted only for a traced request — and the error,
// "" for a served reply and a short description otherwise.
func (p *Proxy) serve(w http.ResponseWriter, r *http.Request, obj ids.ObjectID, reqID string, forwards int, sc *spanCtx) (decision, errMsg string) {
	// Admission control at the edge: entry requests beyond the bounded
	// queue are shed with 429. Forwarded hops bypass the gate — they
	// already hold a slot at their entry proxy, and gating them
	// mid-chain could deadlock a chain revisiting a saturated proxy.
	if forwards == 0 {
		// Counted before the draining check, so awaitEntries cannot miss a
		// request that passed it.
		p.entries.Add(1)
		defer p.entries.Add(-1)
		if p.draining.Load() {
			w.Header().Set("Connection", "close")
			http.Error(w, "proxy shutting down", http.StatusServiceUnavailable)
			return "", "draining"
		}
		gateStart := nowUs()
		admitted := p.gate.enter()
		p.stages.Observe(metrics.StageGateWait, nowUs()-gateStart)
		if !admitted {
			sc.record(obs.SpanGateWait, gateStart, obj, "", "shed")
			p.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "proxy overloaded", http.StatusTooManyRequests)
			return "", "shed"
		}
		sc.record(obs.SpanGateWait, gateStart, obj, "", "")
		defer p.gate.leave()
	}

	// Receive_Request (Fig. 5) under the lock: a local hit answers at once.
	sender := ids.None
	if p.replicating {
		sender = parseNodeID(r.Header.Get(HeaderSender))
	}
	p.mu.Lock()
	hit, outcome, adv := p.adc.Arrive(obj, sender)
	if hit {
		payload := p.store[obj]
		adv.Replicas = slices.Clone(adv.Replicas) // aliases table memory; headers are written off-lock
		p.mu.Unlock()
		h := w.Header()
		h["Content-Type"] = textPlain
		h[HeaderResolver] = p.self
		h[HeaderCached] = headerOne
		encodeAdvert(h, adv)
		_, _ = w.Write(payload)
		if sc != nil {
			decision = "hit " + obs.OutcomeString(outcome)
		}
		return decision, ""
	}
	looped := p.pending[reqID] > 0
	atMax := p.maxHops > 0 && forwards >= p.maxHops
	p.mu.Unlock()

	// Miss path. Entry requests coalesce: concurrent misses on one cold
	// object share a single upstream chain (see flight.go for why
	// forwarded hops must not join flights). Each waiter still runs its
	// own Receive_Reply below. Entry chains also own the fault-tolerance
	// policy (resolveEntry): retries, hedging and the origin fallback run
	// at exactly one proxy per request, so a dead peer cannot multiply
	// upstream attempts hop by hop.
	entryChain := forwards == 0 && !looped && !atMax
	var res flightResult
	switch {
	case p.coalesce && entryChain:
		flightStart := nowUs()
		var shared bool
		res, shared = p.flights.do(obj, func() flightResult {
			// The flight leader's closure runs under the LEADER's span
			// context: followers see a flight_wait span, the leader's tree
			// carries the actual fetch spans — the shape real distributed
			// tracers give coalesced work.
			return p.resolveEntry(obj, reqID, sc)
		})
		if shared {
			p.coalesced.Add(1)
			p.stages.Observe(metrics.StageFlightWait, nowUs()-flightStart)
			sc.record(obs.SpanFlightWait, flightStart, obj, "", "")
		}
	case entryChain:
		res = p.resolveEntry(obj, reqID, sc)
	default:
		res = p.resolveMiss(obj, reqID, forwards, looped, atMax, sc)
	}

	if res.err != nil || res.status != http.StatusOK {
		if res.err != nil {
			http.Error(w, res.err.Error(), http.StatusBadGateway)
			return "", "upstream: " + res.err.Error()
		}
		http.Error(w, "upstream status", res.status)
		return "", "upstream status " + strconv.Itoa(res.status)
	}

	// Receive_Reply (Fig. 7): the core learns the location and decides the
	// claim; the payload passing by is stored exactly when the caching
	// table took the object.
	upstream := decodeAdvert(res.hdr)
	p.mu.Lock()
	l := p.adc.Learn(obj, parseNodeID(res.hdr.Get(HeaderResolver)), res.hdr.Get(HeaderCached) == "1", sender, upstream)
	if l.Holds {
		p.store[obj] = res.body
	}
	l.Advert.Replicas = slices.Clone(l.Advert.Replicas) // may alias table memory
	resolver := p.names[l.Resolver]
	p.mu.Unlock()
	if resolver == nil {
		resolver = []string{l.Resolver.String()}
	}

	h := w.Header()
	h["Content-Type"] = textPlain
	h[HeaderResolver] = resolver
	if l.Cached {
		h[HeaderCached] = headerOne
	}
	if res.hdr.Get(HeaderOrigin) == "1" {
		h[HeaderOrigin] = headerOne
	}
	encodeAdvert(h, l.Advert)
	_, _ = w.Write(res.body)
	if sc != nil {
		decision = "learned " + l.Location.String() + " " + obs.OutcomeString(l.Outcome)
	}
	return decision, ""
}

// resolveMiss is the forwarding half of a miss: it registers the pending
// pass for loop detection, asks the core for the upstream (Forward_Addr,
// Fig. 6), performs the fetch outside the lock (the chain may revisit us),
// and retires the pending pass. looped/atMax carry the entry decision so the
// stats and routing reason match what the caller observed.
func (p *Proxy) resolveMiss(obj ids.ObjectID, reqID string, forwards int, looped, atMax bool, sc *spanCtx) flightResult {
	// With health probing on, peers the monitor believes down are not
	// routable; without it the nil predicate keeps the stock single draw.
	var routable func(ids.NodeID) bool
	if m := p.health.Load(); m != nil {
		routable = m.routable
	}
	p.mu.Lock()
	p.pending[reqID]++
	upNode, reason := p.adc.Route(obj, looped, atMax, forwards == 0, routable)
	upstream := p.origin
	if upNode.IsProxy() {
		upstream = p.peerURL[upNode]
	}
	p.mu.Unlock()

	var res flightResult
	res.body, res.hdr, res.status, res.err = p.fetch(upstream, upNode, obs.ForwardReasonString(reason), obj, reqID, forwards+1, sc)

	p.mu.Lock()
	// Retire the stored backwarding pass.
	if n := p.pending[reqID]; n > 1 {
		p.pending[reqID] = n - 1
	} else {
		delete(p.pending, reqID)
	}
	p.mu.Unlock()
	return res
}

// resolved reports whether a flight result is worth returning to the
// client: the transport worked and the upstream did not fail server-side.
// 4xx passes through — retrying a Bad Request elsewhere cannot fix it.
func resolved(res flightResult) bool {
	return res.err == nil && res.status < http.StatusInternalServerError
}

// resolveEntry is the entry chain's miss path: resolveMiss plus the
// fault-tolerance policy — bounded-backoff retries of the whole chain and
// a final direct-origin fallback. Only entry proxies run it, for the same
// reason only they coalesce: exactly one proxy owns failover per request,
// so retries cannot stack hop by hop and the fallback cannot loop.
func (p *Proxy) resolveEntry(obj ids.ObjectID, reqID string, sc *spanCtx) flightResult {
	res := p.resolveMissHedged(obj, reqID, sc)
	if resolved(res) || !p.ft.Health.Enabled {
		return res
	}
	backoff := retryBackoff
	for attempt := 0; attempt < p.ft.MaxRetries; attempt++ {
		p.retried.Add(1)
		time.Sleep(backoff)
		backoff *= 2
		res = p.resolveMiss(obj, reqID, 0, false, false, sc.tagged("retry="+strconv.Itoa(attempt+1)))
		if resolved(res) {
			return res
		}
	}
	// Last resort: ask the origin directly. The failed attempts already
	// fed the health monitor, so routing is healing; this keeps the
	// client whole in the meantime.
	p.failover.Add(1)
	var alt flightResult
	alt.body, alt.hdr, alt.status, alt.err = p.fetch(p.origin, ids.Origin, "", obj, reqID, 1, sc.tagged("failover"))
	if resolved(alt) {
		return alt
	}
	return res // origin failed too; report the original chain error
}

// resolveMissHedged runs an entry miss with an optional hedge: if the
// chain is still unresolved after HedgeDelay, a parallel direct-origin
// fetch starts and the first usable answer wins. Both channels are
// buffered so the losing branch always completes into the buffer and its
// goroutine exits — no leaks, no waiting on the loser.
func (p *Proxy) resolveMissHedged(obj ids.ObjectID, reqID string, sc *spanCtx) flightResult {
	if p.ft.HedgeDelay <= 0 {
		return p.resolveMiss(obj, reqID, 0, false, false, sc)
	}
	primary := make(chan flightResult, 1)
	go func() { primary <- p.resolveMiss(obj, reqID, 0, false, false, sc) }()
	timer := time.NewTimer(p.ft.HedgeDelay)
	defer timer.Stop()
	select {
	case res := <-primary:
		return res
	case <-timer.C:
	}
	p.hedged.Add(1)
	hedge := make(chan flightResult, 1)
	go func() {
		var res flightResult
		res.body, res.hdr, res.status, res.err = p.fetch(p.origin, ids.Origin, "", obj, reqID, 1, sc.tagged("hedge"))
		hedge <- res
	}()
	select {
	case res := <-primary:
		if resolved(res) {
			return res
		}
		if alt := <-hedge; resolved(alt) {
			p.hedgeWins.Add(1)
			return alt
		}
		return res
	case alt := <-hedge:
		if resolved(alt) {
			p.hedgeWins.Add(1)
			return alt
		}
		return <-primary
	}
}

// fetch issues the upstream GET carrying the ADC headers. dest names the
// destination node so the fault-tolerance layer can attribute the outcome:
// a partition blocks the connection up front, a peer the health monitor
// holds down (a fetch that raced past Route's check) is refused without a
// connection, and the connection result feeds dest's health machine. Only
// transport errors count against a peer — a live proxy answering 5xx is a
// content problem, not a dead process. why is Route's reason for dest, ""
// for a fetch Route did not choose; the fetch's span carries it.
func (p *Proxy) fetch(base string, dest ids.NodeID, why string, obj ids.ObjectID, reqID string, forwards int, sc *spanCtx) ([]byte, http.Header, int, error) {
	start := nowUs()
	stage, spanStage := metrics.StageForward, obs.SpanForward
	if !dest.IsProxy() {
		stage, spanStage = metrics.StageOrigin, obs.SpanOrigin
	}
	detail := sc.hop(dest, why)
	m := p.health.Load()
	if dest.IsProxy() && p.isBlocked(dest) {
		m.reportFailure(dest)
		sc.record(spanStage, start, obj, detail, "partitioned")
		return nil, nil, 0, fmt.Errorf("httpproxy: %v unreachable from %v (partitioned)", dest, p.id)
	}
	if dest.IsProxy() && !m.routable(dest) {
		p.denied.Add(1)
		sc.record(obs.SpanBreakerDenied, start, obj, detail, "peer down")
		return nil, nil, 0, fmt.Errorf("httpproxy: fetch %v: peer down", dest)
	}
	host, ok := strings.CutPrefix(base, "http://")
	if !ok || host == "" || strings.ContainsAny(host, "/?#") {
		return nil, nil, 0, fmt.Errorf("httpproxy: upstream %q is not an http://host:port URL", base)
	}
	// The request is built by hand and handed to the RoundTripper: no URL
	// to parse, no redirect loop and no header copies for one, and each
	// header value's slice is cut from one array.
	up := &upstreamRequest{}
	up.url = url.URL{Scheme: "http", Host: host, Path: objPath(obj)}
	h := make(http.Header, 5)
	up.vals[0], up.vals[1] = reqID, strconv.Itoa(forwards)
	h[HeaderRequestID], h[HeaderForwards] = up.vals[0:1:1], up.vals[1:2:2]
	up.req = http.Request{
		Method: http.MethodGet, URL: &up.url, Host: host, Header: h,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	// The span is allocated before the request so its ID can travel in
	// X-Adc-Span: the receiving proxy's server span parents onto it, which
	// is the link adctrace's cross-proxy tree reconstruction rides on.
	spanID := sc.child()
	sc.setHeaders(h, spanID)
	if p.replicating {
		// Identify this proxy as the forwarding hop so a holder upstream
		// knows which recent requester a replica push should target.
		up.vals[2] = p.self[0]
		h[HeaderSender] = up.vals[2:3:3]
	}
	resp, err := p.rt.RoundTrip(&up.req)
	if dest.IsProxy() {
		if err != nil {
			m.reportFailure(dest)
		} else {
			m.reportSuccess(dest)
		}
	}
	if err != nil {
		sc.recordID(spanID, spanStage, start, obj, detail, err.Error())
		return nil, nil, 0, fmt.Errorf("httpproxy: upstream fetch: %w", err)
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	body, err := readBody(resp)
	if err != nil {
		sc.recordID(spanID, spanStage, start, obj, detail, err.Error())
		return nil, nil, 0, fmt.Errorf("httpproxy: read upstream body: %w", err)
	}
	p.stages.Observe(stage, nowUs()-start)
	spanErr := ""
	if resp.StatusCode != http.StatusOK {
		spanErr = "status " + strconv.Itoa(resp.StatusCode)
	}
	sc.recordID(spanID, spanStage, start, obj, detail, spanErr)
	return body, resp.Header, resp.StatusCode, nil
}

// upstreamRequest is one upstream fetch's request, its URL and the
// backing of its header's values, in one allocation.
type upstreamRequest struct {
	req  http.Request
	url  url.URL
	vals [3]string
}

// objPath is ObjectURL's path: /obj/<id>.
func objPath(obj ids.ObjectID) string {
	var b [len(objPathPrefix) + 20]byte
	return string(strconv.AppendUint(append(b[:0], objPathPrefix...), uint64(obj), 10))
}

// maxBodyBytes caps every response body this package reads into memory —
// an upstream object, a farm client's reply, a scraped span dump — so a
// misbehaving peer or origin cannot make a proxy allocate without bound.
// Object payloads are tens of bytes; the largest legitimate body is the
// JSON dump of a default span ring, a few MB.
const maxBodyBytes = 16 << 20

// readBody reads the whole body of resp through a limit. A body over
// maxBodyBytes — declared or streamed — is an error, and so is one shorter
// or longer than its declared length. A declared length is read into a
// buffer one byte longer, so that one io.ReadFull both reaches the body's
// end, which hands the connection back, and catches a longer body.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength > maxBodyBytes {
		return nil, fmt.Errorf("body of %d bytes exceeds the %d-byte limit", resp.ContentLength, maxBodyBytes)
	}
	if n := resp.ContentLength; n > 0 {
		body := make([]byte, n+1)
		switch got, err := io.ReadFull(resp.Body, body); {
		case got == int(n) && (err == io.EOF || err == io.ErrUnexpectedEOF):
			return body[:n:n], nil
		case err == nil:
			return nil, fmt.Errorf("body longer than its declared %d bytes", n)
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			return nil, fmt.Errorf("body of %d bytes, not the declared %d: %w", got, n, io.ErrUnexpectedEOF)
		default:
			return nil, err
		}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxBodyBytes {
		return nil, fmt.Errorf("body exceeds the %d-byte limit", maxBodyBytes)
	}
	return body, nil
}
