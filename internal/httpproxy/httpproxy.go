// Package httpproxy is a real HTTP proxy system built on the ADC
// algorithm — the paper's first future-work item ("the creation of a real
// proxy system based on the freely available Squid server", §VI), realised
// with net/http instead of Squid.
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
// breakers, retries, hedging, spans — and the header codec. The ADC metadata
// travels in headers:
//
//	X-ADC-Request-ID   globally unique ID, for loop detection
//	X-ADC-Forwards     number of proxy forwards so far (max-hops bound)
//	X-ADC-Resolver     the agreed location (empty = origin data)
//	X-ADC-Cached       set once some proxy on the chain stores the object
//	X-ADC-Origin       marks payloads produced by the origin server
package httpproxy

import (
	"fmt"
	"io"
	"net"
	"net/http"
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
	ln  net.Listener
	srv *http.Server

	mu       sync.Mutex
	resolved uint64
	tracer   *obs.Tracer
}

// Payload returns the canonical payload of an object.
func Payload(obj ids.ObjectID) []byte {
	return []byte(fmt.Sprintf("object %d body: %x", uint64(obj), uint64(obj)*0x9E3779B97F4A7C15))
}

// NewOrigin starts an origin server on a loopback port.
func NewOrigin() (*Origin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("httpproxy: origin listen: %w", err)
	}
	o := &Origin{ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc(objPathPrefix, o.handle)
	o.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go o.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	return o, nil
}

// URL returns the origin's base URL.
func (o *Origin) URL() string { return "http://" + o.ln.Addr().String() }

// Resolved returns how many requests the origin answered.
func (o *Origin) Resolved() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.resolved
}

// SetTracer installs the request tracer.
func (o *Origin) SetTracer(t *obs.Tracer) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.tracer = t
}

// Close shuts the origin down.
func (o *Origin) Close() error { return o.srv.Close() }

func (o *Origin) handle(w http.ResponseWriter, r *http.Request) {
	obj, err := parseObjectPath(r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	o.mu.Lock()
	o.resolved++
	tr := o.tracer
	o.mu.Unlock()
	if tr.Enabled(obs.KindOriginResolve) {
		e := obs.Ev(obs.KindOriginResolve, ids.Origin)
		e.Req = HashRequestID(r.Header.Get(HeaderRequestID))
		e.Obj = obj
		tr.Emit(e)
	}
	w.Header().Set(HeaderOrigin, "1")
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
	addr    string // listen address, stable across Kill/Restart
	url     string
	mux     *http.ServeMux
	client  *http.Client
	origin  string
	maxHops int

	gate     *gate
	flights  flightGroup
	coalesce bool

	// Fault tolerance (all nil/zero when FaultTolerance is disabled, so
	// the hot path pays only nil checks). health is an atomic pointer:
	// it is installed by SetPeers after handlers may already be running.
	ft       FaultTolerance
	health   atomic.Pointer[healthMonitor]
	breakers *breakerGroup

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

	// Partition state for the chaos harness. nblocked short-circuits the
	// per-fetch check to one atomic load while no partition is active.
	nblocked  atomic.Int32
	blockMu   sync.Mutex
	blockedTo map[ids.NodeID]struct{}

	// replicating mirrors Config.Replication.Enabled: only then do forwards
	// carry X-Adc-Sender and arrivals parse it.
	replicating bool

	mu      sync.Mutex
	ln      net.Listener    // current listener; replaced by Restart
	srv     *http.Server    // current server; replaced by Restart
	killed  bool            // Kill..Restart window (chaos harness)
	adc     *protocol.Agent // the protocol core: tables, rng, clock, counters
	store   map[ids.ObjectID][]byte
	pending map[string]int
	peerURL map[ids.NodeID]string
	tracer  *obs.Tracer
}

// FaultTolerance configures the farm's fault-tolerance layer: peer health
// probing with failover routing, per-peer circuit breakers on the upstream
// fetch path, bounded-backoff retries for entry requests, and hedged
// origin fetches. The zero value disables the whole layer — routing,
// fetching and benchmarks behave exactly as without it.
type FaultTolerance struct {
	// Health configures peer probing; Health.Enabled gates the layer.
	Health HealthConfig
	// BreakerThreshold is the consecutive-connection-failure count that
	// opens a peer's circuit (0 = default 5, negative = breakers off).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects fetches before
	// a half-open trial (0 = default 1s).
	BreakerCooldown time.Duration
	// MaxRetries bounds per-entry-request failover retries after a
	// failed chain (0 = default 2, negative = no retries). Mid-chain
	// hops never retry: exactly one proxy — the entry — owns failover,
	// so a dead peer cannot multiply upstream attempts hop by hop.
	MaxRetries int
	// RetryBackoff is the initial retry delay, doubling per attempt
	// (0 = default 25ms).
	RetryBackoff time.Duration
	// HedgeDelay, when positive, starts a parallel direct-origin fetch
	// for an entry chain still unresolved after this long, and the first
	// success wins. Set it near the observed forwarding p99: hedges then
	// trade a small duplicate-fetch rate for cutting the timeout tail of
	// chains through a dying peer. 0 disables hedging.
	HedgeDelay time.Duration
}

// Failover-retry defaults; FaultTolerance fields override.
const (
	defaultEntryRetries = 2
	defaultRetryBackoff = 25 * time.Millisecond
)

// withDefaults normalizes the policy. With Health.Enabled false the whole
// struct collapses to the zero value: no monitor, no breakers, no retries.
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
	if ft.RetryBackoff <= 0 {
		ft.RetryBackoff = defaultRetryBackoff
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
	// circuit breakers and hedging (zero value = all off).
	FaultTolerance FaultTolerance
	// Tracing configures cross-proxy span tracing (zero value = off).
	Tracing Tracing
	// Client overrides the shared pooled HTTP client (tests).
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
	ft := cfg.FaultTolerance.withDefaults()
	p := &Proxy{
		id:       cfg.ID,
		addr:     ln.Addr().String(),
		url:      "http://" + ln.Addr().String(),
		ln:       ln,
		client:   client,
		origin:   cfg.OriginURL,
		maxHops:  cfg.MaxHops,
		gate:     newGate(cfg.MaxActive, cfg.MaxQueue),
		coalesce: !cfg.NoCoalesce,
		ft:       ft,
		tracing:  cfg.Tracing.withDefaults(),
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
	if p.tracing.Enabled {
		p.spans = obs.NewSpanRing(p.tracing.RingSize)
	}
	if ft.Health.Enabled {
		p.breakers = newBreakerGroup(ft.BreakerThreshold, ft.BreakerCooldown)
	}
	mux := http.NewServeMux()
	mux.HandleFunc(objPathPrefix, p.handle)
	mux.HandleFunc(healthzPath, p.handleHealthz)
	registerDebug(mux, p)
	p.mux = mux
	p.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go p.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	return p, nil
}

// Handler exposes the proxy's full mux (object path plus debug endpoints)
// for in-process serving, e.g. under httptest.
func (p *Proxy) Handler() http.Handler { return p.mux }

// SetTracer installs the request tracer.
func (p *Proxy) SetTracer(t *obs.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tracer = t
}

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
// probe goroutines do not outlive the farm.
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
	return srv.Close()
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
	srv := &http.Server{Handler: p.mux, ReadHeaderTimeout: 5 * time.Second}
	p.mu.Lock()
	p.ln = ln
	p.srv = srv
	p.killed = false
	p.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
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
	forwards, _ := strconv.Atoi(r.Header.Get(HeaderForwards))

	sc := p.spanContext(r.Header, forwards)
	start := nowUs()
	errMsg := p.serve(w, r, obj, reqID, forwards, sc)
	p.stages.Observe(metrics.StageServer, nowUs()-start)
	sc.finishServer(start, obj, errMsg)
}

// serve runs one request through admission, the hit path, and the miss
// path. The returned string is the server span's error annotation: "" for
// a served reply, a short description otherwise.
func (p *Proxy) serve(w http.ResponseWriter, r *http.Request, obj ids.ObjectID, reqID string, forwards int, sc *spanCtx) string {
	// Admission control at the edge: entry requests beyond the bounded
	// queue are shed with 429. Forwarded hops bypass the gate — they
	// already hold a slot at their entry proxy, and gating them
	// mid-chain could deadlock a chain revisiting a saturated proxy.
	if forwards == 0 {
		gateStart := nowUs()
		admitted := p.gate.enter()
		p.stages.Observe(metrics.StageGateWait, nowUs()-gateStart)
		if !admitted {
			sc.record(obs.SpanGateWait, gateStart, obj, "", "shed")
			p.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "proxy overloaded", http.StatusTooManyRequests)
			return "shed"
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
		if p.tracer.Enabled(obs.KindHit) {
			e := obs.Ev(obs.KindHit, p.id)
			e.Req = HashRequestID(reqID)
			e.Obj = obj
			e.Loc = p.id
			e.Hops = int32(forwards)
			e.Arg = outcome
			p.tracer.Emit(e)
		}
		p.mu.Unlock()
		w.Header().Set(HeaderResolver, p.id.String())
		w.Header().Set(HeaderCached, "1")
		encodeAdvert(w.Header(), adv)
		_, _ = w.Write(payload)
		return ""
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
			return "upstream: " + res.err.Error()
		}
		http.Error(w, "upstream status", res.status)
		return "upstream status " + strconv.Itoa(res.status)
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
	if p.tracer.Enabled(obs.KindBackward) {
		e := obs.Ev(obs.KindBackward, p.id)
		e.Req = HashRequestID(reqID)
		e.Obj = obj
		e.Loc = l.Location
		e.Hops = int32(forwards)
		e.Arg = l.Outcome
		p.tracer.Emit(e)
	}
	p.mu.Unlock()

	w.Header().Set(HeaderResolver, l.Resolver.String())
	if l.Cached {
		w.Header().Set(HeaderCached, "1")
	}
	if res.hdr.Get(HeaderOrigin) == "1" {
		w.Header().Set(HeaderOrigin, "1")
	}
	encodeAdvert(w.Header(), l.Advert)
	_, _ = w.Write(res.body)
	return ""
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
	if p.tracer.Enabled(obs.KindForward) {
		e := obs.Ev(obs.KindForward, p.id)
		e.Req = HashRequestID(reqID)
		e.Obj = obj
		e.To = upNode
		e.Hops = int32(forwards)
		e.Arg = reason
		p.tracer.Emit(e)
	}
	p.mu.Unlock()

	var res flightResult
	res.body, res.hdr, res.status, res.err = p.fetch(upstream, upNode, obj, reqID, forwards+1, sc)

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
	backoff := p.ft.RetryBackoff
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
	alt.body, alt.hdr, alt.status, alt.err = p.fetch(p.origin, ids.Origin, obj, reqID, 1, sc.tagged("failover"))
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
		res.body, res.hdr, res.status, res.err = p.fetch(p.origin, ids.Origin, obj, reqID, 1, sc.tagged("hedge"))
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
// a partition blocks the connection up front, an open breaker fails fast,
// and the connection result feeds dest's health machine and circuit. Only
// transport errors count against a peer — a live proxy answering 5xx is a
// content problem, not a dead process.
func (p *Proxy) fetch(base string, dest ids.NodeID, obj ids.ObjectID, reqID string, forwards int, sc *spanCtx) ([]byte, http.Header, int, error) {
	start := nowUs()
	stage, spanStage := metrics.StageForward, obs.SpanForward
	if !dest.IsProxy() {
		stage, spanStage = metrics.StageOrigin, obs.SpanOrigin
	}
	if dest.IsProxy() && p.isBlocked(dest) {
		if m := p.health.Load(); m != nil {
			m.reportFailure(dest)
		}
		sc.record(spanStage, start, obj, dest.String(), "partitioned")
		return nil, nil, 0, fmt.Errorf("httpproxy: %v unreachable from %v (partitioned)", dest, p.id)
	}
	if dest.IsProxy() && !p.breakers.allow(dest) {
		p.denied.Add(1)
		sc.record(obs.SpanBreakerDenied, start, obj, dest.String(), errBreakerOpen.Error())
		return nil, nil, 0, fmt.Errorf("httpproxy: fetch %v: %w", dest, errBreakerOpen)
	}
	req, err := http.NewRequest(http.MethodGet, ObjectURL(base, obj), nil)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("httpproxy: build upstream request: %w", err)
	}
	req.Header.Set(HeaderRequestID, reqID)
	req.Header.Set(HeaderForwards, strconv.Itoa(forwards))
	// The span is allocated before the request so its ID can travel in
	// X-Adc-Span: the receiving proxy's server span parents onto it, which
	// is the link adctrace's cross-proxy tree reconstruction rides on.
	spanID := sc.child()
	sc.setHeaders(req.Header, spanID)
	if p.replicating {
		// Identify this proxy as the forwarding hop so a holder upstream
		// knows which recent requester a replica push should target.
		req.Header.Set(HeaderSender, p.id.String())
	}
	resp, err := p.client.Do(req)
	if dest.IsProxy() {
		p.breakers.report(dest, err == nil)
		if m := p.health.Load(); m != nil {
			if err != nil {
				m.reportFailure(dest)
			} else {
				m.reportSuccess(dest)
			}
		}
	}
	if err != nil {
		sc.recordID(spanID, spanStage, start, obj, dest.String(), err.Error())
		return nil, nil, 0, fmt.Errorf("httpproxy: upstream fetch: %w", err)
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	body, err := readBody(resp)
	if err != nil {
		sc.recordID(spanID, spanStage, start, obj, dest.String(), err.Error())
		return nil, nil, 0, fmt.Errorf("httpproxy: read upstream body: %w", err)
	}
	p.stages.Observe(stage, nowUs()-start)
	spanErr := ""
	if resp.StatusCode != http.StatusOK {
		spanErr = "status " + strconv.Itoa(resp.StatusCode)
	}
	sc.recordID(spanID, spanStage, start, obj, dest.String(), spanErr)
	return body, resp.Header, resp.StatusCode, nil
}

// maxBodyBytes caps every response body this package reads into memory —
// an upstream object, a farm client's reply, a scraped span dump — so a
// misbehaving peer or origin cannot make a proxy allocate without bound.
// Object payloads are tens of bytes; the largest legitimate body is the
// JSON dump of a default span ring, a few MB.
const maxBodyBytes = 16 << 20

// readBody reads the whole body of resp through a limit. A body over
// maxBodyBytes — declared or streamed — is an error, and so is one shorter
// than its declared length (net/http reports that itself).
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength > maxBodyBytes {
		return nil, fmt.Errorf("body of %d bytes exceeds the %d-byte limit", resp.ContentLength, maxBodyBytes)
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
