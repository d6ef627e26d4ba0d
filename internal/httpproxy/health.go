package httpproxy

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/adc-sim/adc/internal/ids"
)

// Peer health. The farm used to assume every proxy is permanently alive:
// a killed peer turned every request routed through it into a hard error,
// and nothing probed, rerouted, or recovered. This file is the real-network
// mirror of the virtual-time fault/recovery layer (DESIGN.md §9): each
// proxy runs a monitor that periodically probes its peers' /healthz
// endpoints and folds in passive evidence from the fetch path (a failed
// upstream connection is a probe failure that arrived early), driving a
// per-peer state machine:
//
//	up → suspect → down → recovering → up
//
// One failure makes a peer suspect (still routable — a single timeout is
// weak evidence); FailureThreshold consecutive failures mark it down, and
// routing skips it from then on — and so does fetch, which refuses a peer
// held down without opening a connection. A down peer answering probes
// again climbs through recovering and is routable only after
// recoveryThreshold consecutive successes, so a flapping listener cannot
// oscillate the routing tables at probe rate; probes, not live requests,
// are what test a recovering peer. Transitions are timestamped and kept in
// a bounded log, which is how the chaos harness measures time-to-detect
// and time-to-recover.

// PeerState is one monitor's belief about one peer.
type PeerState uint8

const (
	// PeerUp: answering; fully routable.
	PeerUp PeerState = iota
	// PeerSuspect: at least one recent failure, threshold not reached.
	// Still routable — shedding a peer on single-sample evidence would
	// let one slow response evict a healthy resolver.
	PeerSuspect
	// PeerDown: FailureThreshold consecutive failures; not routable.
	PeerDown
	// PeerRecovering: a down peer answered again, waiting for
	// recoveryThreshold consecutive successes; not yet routable.
	PeerRecovering
)

func (s PeerState) String() string {
	switch s {
	case PeerUp:
		return "up"
	case PeerSuspect:
		return "suspect"
	case PeerDown:
		return "down"
	case PeerRecovering:
		return "recovering"
	}
	return "unknown"
}

// routable reports whether forwarding may target a peer in this state.
func (s PeerState) routable() bool { return s == PeerUp || s == PeerSuspect }

// HealthConfig configures the per-proxy peer-health monitor.
type HealthConfig struct {
	// Enabled turns the subsystem on. Off (the zero value), no monitor
	// goroutine runs and routing behaves exactly as before.
	Enabled bool
	// ProbeInterval spaces the periodic /healthz probes (default 250ms).
	ProbeInterval time.Duration
	// FailureThreshold is how many consecutive probe/fetch failures mark
	// a peer down (default 3). Detection latency is bounded by
	// ProbeInterval × FailureThreshold plus one probe round-trip.
	FailureThreshold int
}

// Health defaults; HealthConfig fields override.
const (
	defaultProbeInterval    = 250 * time.Millisecond
	defaultFailureThreshold = 3
)

// recoveryThreshold is how many consecutive successes a down peer needs
// before it is routable again. It must stay above 1: observe moves a down
// peer's first success to recovering unconditionally.
const recoveryThreshold = 2

// withDefaults fills zero fields.
func (c HealthConfig) withDefaults() HealthConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = defaultProbeInterval
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = defaultFailureThreshold
	}
	return c
}

// healthzPath is the liveness endpoint every proxy serves. It answers
// before any table lock: the probe asks "is the process accepting
// connections", not "is the proxy fast".
const healthzPath = "/healthz"

// HealthTransition is one timestamped state change in a monitor's log.
type HealthTransition struct {
	// Observer is the proxy whose monitor recorded the transition.
	Observer ids.NodeID `json:"observer"`
	// Peer is the peer whose state changed.
	Peer ids.NodeID `json:"peer"`
	// To is the state entered.
	To PeerState `json:"-"`
	// State is To rendered for JSON output.
	State string `json:"state"`
	// At is the wall-clock transition time.
	At time.Time `json:"at"`
}

// transitionLogCap bounds the monitor's transition log; a chaos run has
// dozens of transitions, not thousands, so dropping the oldest is safe.
const transitionLogCap = 1024

// peerHealth is the monitor's per-peer record.
type peerHealth struct {
	url   string
	state PeerState
	fails int // consecutive failures (suspect counting toward down)
	oks   int // consecutive successes (recovering counting toward up)
}

// healthMonitor probes one proxy's peers and owns their state machines.
// All state is guarded by mu; the probe loop runs in its own goroutine and
// pauses while the owning proxy is killed (a dead process does not probe).
type healthMonitor struct {
	cfg     HealthConfig
	self    ids.NodeID
	client  *http.Client
	blocked func(ids.NodeID) bool // partition check, may be nil

	mu          sync.Mutex
	peers       map[ids.NodeID]*peerHealth
	paused      bool
	probes      uint64
	probeFails  uint64
	detections  uint64
	recoveries  uint64
	transitions []HealthTransition

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// newHealthMonitor builds a monitor for the given peer address book
// (excluding self) and starts its probe loop.
func newHealthMonitor(cfg HealthConfig, self ids.NodeID, urls map[ids.NodeID]string, blocked func(ids.NodeID) bool) *healthMonitor {
	cfg = cfg.withDefaults()
	m := &healthMonitor{
		cfg:     cfg,
		self:    self,
		client:  sharedClient,
		blocked: blocked,
		peers:   make(map[ids.NodeID]*peerHealth, len(urls)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for id, url := range urls {
		if id == self {
			continue
		}
		m.peers[id] = &peerHealth{url: url, state: PeerUp}
	}
	go m.run()
	return m
}

// close stops the probe loop and waits for it to exit.
func (m *healthMonitor) close() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// pause/resume stop probing while the owning proxy is killed. The peer
// states freeze — a dead proxy has no beliefs worth updating — and resume
// re-probes from the frozen state.
func (m *healthMonitor) pause() {
	m.mu.Lock()
	m.paused = true
	m.mu.Unlock()
}

func (m *healthMonitor) resume() {
	m.mu.Lock()
	m.paused = false
	m.mu.Unlock()
}

// routable reports whether forwarding may target peer right now. Self is
// always routable (the local store is consulted before forwarding anyway).
func (m *healthMonitor) routable(peer ids.NodeID) bool {
	if m == nil {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ph, ok := m.peers[peer]
	if !ok {
		return true
	}
	return ph.state.routable()
}

// state returns the monitor's belief about peer (PeerUp for unknown peers).
func (m *healthMonitor) state(peer ids.NodeID) PeerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ph, ok := m.peers[peer]; ok {
		return ph.state
	}
	return PeerUp
}

// reportFailure folds a fetch-path connection failure into the state
// machine — passive evidence that arrives between probe ticks, so a dead
// resolver under traffic is detected faster than the probe cadence alone.
func (m *healthMonitor) reportFailure(peer ids.NodeID) {
	if m == nil {
		return
	}
	m.observe(peer, false)
}

// reportSuccess folds a successful fetch into the state machine.
func (m *healthMonitor) reportSuccess(peer ids.NodeID) {
	if m == nil {
		return
	}
	m.observe(peer, true)
}

// observe applies one observation (probe or passive) to peer's machine.
func (m *healthMonitor) observe(peer ids.NodeID, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ph, known := m.peers[peer]
	if !known {
		return
	}
	switch ph.state {
	case PeerUp:
		if ok {
			ph.fails = 0
			return
		}
		ph.fails = 1
		if ph.fails >= m.cfg.FailureThreshold {
			m.transitionLocked(ph, peer, PeerDown)
			m.detections++
			return
		}
		m.transitionLocked(ph, peer, PeerSuspect)
	case PeerSuspect:
		if ok {
			ph.fails = 0
			m.transitionLocked(ph, peer, PeerUp)
			return
		}
		ph.fails++
		if ph.fails >= m.cfg.FailureThreshold {
			m.transitionLocked(ph, peer, PeerDown)
			m.detections++
		}
	case PeerDown:
		if !ok {
			return
		}
		ph.oks = 1
		m.transitionLocked(ph, peer, PeerRecovering)
	case PeerRecovering:
		if !ok {
			ph.oks = 0
			m.transitionLocked(ph, peer, PeerDown)
			return
		}
		ph.oks++
		if ph.oks >= recoveryThreshold {
			m.recoverLocked(ph, peer)
		}
	}
}

// recoverLocked completes a down peer's climb back to up.
func (m *healthMonitor) recoverLocked(ph *peerHealth, peer ids.NodeID) {
	ph.fails = 0
	m.transitionLocked(ph, peer, PeerUp)
	m.recoveries++
}

// transitionLocked moves ph to state and appends to the bounded log.
func (m *healthMonitor) transitionLocked(ph *peerHealth, peer ids.NodeID, to PeerState) {
	ph.state = to
	if len(m.transitions) >= transitionLogCap {
		copy(m.transitions, m.transitions[1:])
		m.transitions = m.transitions[:transitionLogCap-1]
	}
	m.transitions = append(m.transitions, HealthTransition{
		Observer: m.self,
		Peer:     peer,
		To:       to,
		State:    to.String(),
		At:       time.Now(),
	})
}

// Transitions copies the monitor's transition log.
func (m *healthMonitor) Transitions() []HealthTransition {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]HealthTransition, len(m.transitions))
	copy(out, m.transitions)
	return out
}

// run is the probe loop: every ProbeInterval, probe all peers in parallel
// (one dead peer's timeout must not delay detection of another).
func (m *healthMonitor) run() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		m.probeAll()
	}
}

// probeAll issues one probe round. Probes share the pooled client but are
// individually bounded by the probe interval, so a wedged peer costs one
// tick, not a dial timeout.
func (m *healthMonitor) probeAll() {
	m.mu.Lock()
	if m.paused {
		m.mu.Unlock()
		return
	}
	type target struct {
		id  ids.NodeID
		url string
	}
	targets := make([]target, 0, len(m.peers))
	for id, ph := range m.peers {
		targets = append(targets, target{id, ph.url})
	}
	m.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(len(targets))
	for _, tg := range targets {
		go func(tg target) {
			defer wg.Done()
			ok := m.probe(tg.id, tg.url)
			m.mu.Lock()
			m.probes++
			if !ok {
				m.probeFails++
			}
			m.mu.Unlock()
			m.observe(tg.id, ok)
		}(tg)
	}
	wg.Wait()
}

// probe checks one peer's /healthz. A partitioned peer fails without a
// request — the chaos harness's partitions cut probe traffic too.
func (m *healthMonitor) probe(id ids.NodeID, url string) bool {
	if m.blocked != nil && m.blocked(id) {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+healthzPath, nil)
	if err != nil {
		return false
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return false
	}
	// Read the small JSON body to its end so the connection goes back to
	// the pool: closed unread, it would cost the peer a new connection
	// every probe.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, healthzDrainBytes))
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// healthzDrainBytes bounds how much of a /healthz body a probe reads; the
// JSON body is about 150 bytes.
const healthzDrainBytes = 4 << 10
