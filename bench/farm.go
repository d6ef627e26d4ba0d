package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adc-sim/adc"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/httpproxy"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/metrics"
)

// The farm's default shape (adc.NewHTTPFarm): 5 proxies, 2000/2000/1000
// tables, so 5,000 cache slots in all.
const (
	farmProxies  = 5
	farmSingle   = 2000
	farmMultiple = 2000
	farmCaching  = 1000
	// streamPerSecond sizes the pre-generated stream: several times what
	// the reference sandbox serves, so the window never runs dry.
	streamPerSecond = 120_000
	// windowSlices is how many equal slices a measured window is cut
	// into; rate and latency quantiles are medians over the slices, which
	// a single stall cannot move.
	windowSlices = 10
	// floorRequests is how many GETs time each floor.
	floorRequests = 4000
)

// farmSpec describes one farm workload: a stationary Zipf(0.8) stream
// over population objects, optionally polluted with one-timers, and the
// number of warm-up requests sent before the window opens.
type farmSpec struct {
	population int
	oneTimer   float64
	warm       int
}

var farmSpecs = map[string]farmSpec{
	"farm_hot":   {population: 500, oneTimer: 0, warm: 20_000},
	"farm_churn": {population: 10_000, oneTimer: 0.3, warm: 20_000},
}

// scaled shrinks the warm-up and the hot set together, so a smoke-scale
// run keeps the workload's repeat structure.
func (s farmSpec) scaled(scale float64) farmSpec {
	s.warm = max(int(float64(s.warm)*scale), 100)
	s.population = max(int(float64(s.population)*scale), 10)
	return s
}

// stream generates n requests: one epoch of the shifting generator is a
// plain stationary Zipf stream with no fill phase.
func (s farmSpec) stream(n int, seed int64) ([]uint64, error) {
	src, err := adc.NewShiftWorkload(adc.ShiftWorkloadConfig{
		Requests: n, Period: n, Population: s.population,
		Alpha: 0.8, OneTimerProb: s.oneTimer, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return drain(src), nil
}

// sample is one completed request as its client saw it.
type sample struct {
	num   int64 // position in the stream; also the request's ID
	start time.Time
	lat   time.Duration
	hit   bool
}

// loadgen is the closed-loop client side: each client sends its next
// request only after the previous reply was read and verified. Clients
// draw stream positions from one counter, so the farm sees the generated
// stream in order.
type loadgen struct {
	client *http.Client
	urls   []string
	stream []uint64
	seed   int64
	next   atomic.Int64
}

// driven is what one drive of the clients produced.
type driven struct {
	samples  []sample
	failed   int
	firstErr error
}

// drive runs clients closed-loop clients until the stream position
// reaches limit or the deadline passes (zero = no deadline).
func (g *loadgen) drive(clients int, limit int64, deadline time.Time) driven {
	parts := make([]driven, clients)
	from := g.next.Load()
	var wg sync.WaitGroup
	wg.Add(clients)
	for w := 0; w < clients; w++ {
		go func(w int) {
			defer wg.Done()
			// Entry proxies are drawn per client, from the run's seed.
			rng := rand.New(rand.NewSource(g.seed*7919 + from + int64(w)*104729))
			d := &parts[w]
			for deadline.IsZero() || time.Now().Before(deadline) {
				num := g.next.Add(1) - 1
				if num >= limit {
					return
				}
				start := time.Now()
				hit, err := g.get(rng.Intn(len(g.urls)), num)
				if err != nil {
					d.failed++
					if d.firstErr == nil {
						d.firstErr = err
					}
					continue
				}
				d.samples = append(d.samples, sample{num: num, start: start, lat: time.Since(start), hit: hit})
			}
		}(w)
	}
	wg.Wait()
	var all driven
	for _, p := range parts {
		all.samples = append(all.samples, p.samples...)
		all.failed += p.failed
		if all.firstErr == nil {
			all.firstErr = p.firstErr
		}
	}
	return all
}

// get fetches stream position num through the given entry proxy and
// checks the reply: status 200 and exactly the origin's payload.
func (g *loadgen) get(entry int, num int64) (hit bool, err error) {
	obj := ids.ObjectID(g.stream[num])
	req, err := http.NewRequest(http.MethodGet, httpproxy.ObjectURL(g.urls[entry], obj), nil)
	if err != nil {
		return false, err
	}
	req.Header.Set(httpproxy.HeaderRequestID, "b"+strconv.FormatInt(num, 10))
	resp, err := g.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, fmt.Errorf("short body for %v: %w", obj, err)
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d for %v", resp.StatusCode, obj)
	}
	if !bytes.Equal(body, httpproxy.Payload(obj)) {
		return false, fmt.Errorf("payload mismatch for %v: got %q", obj, body)
	}
	return resp.Header.Get(httpproxy.HeaderOrigin) != "1", nil
}

// farmStats sums every proxy's counters, read from /debug/vars.
func (g *loadgen) farmStats() (metrics.ProxyStats, error) {
	var total metrics.ProxyStats
	for _, u := range g.urls {
		resp, err := g.client.Get(u + "/debug/vars")
		if err != nil {
			return total, err
		}
		var doc struct {
			Stats metrics.ProxyStats `json:"stats"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close() //nolint:errcheck // read side
		if err != nil {
			return total, fmt.Errorf("decode %s/debug/vars: %w", u, err)
		}
		total.Add(doc.Stats)
	}
	return total, nil
}

// farmSystem is a warmed farm with its client side.
type farmSystem struct {
	gen   *loadgen
	close func()
}

// farmTrace carries the traced run's span log; on gates recording to the
// measured window.
type farmTrace struct {
	log *spanLog
	on  atomic.Bool
}

// setupFarm generates the stream, starts a farm and warms it. Untraced it
// is adc.NewHTTPFarm as a user starts it; traced it is the same farm
// wired by hand so every proxy's upstream calls pass a timing
// RoundTripper.
func setupFarm(opt options, spec farmSpec, tr *farmTrace, windowSeconds float64) (*farmSystem, error) {
	stream, err := spec.stream(spec.warm+int(windowSeconds*streamPerSecond), opt.seed)
	if err != nil {
		return nil, err
	}
	urls, closeFarm, err := startFarm(opt.seed, tr)
	if err != nil {
		return nil, err
	}
	client := httpproxy.NewClient()
	sys := &farmSystem{
		gen: &loadgen{client: client, urls: urls, stream: stream, seed: opt.seed},
		close: func() {
			client.CloseIdleConnections()
			closeFarm()
		},
	}
	if d := sys.gen.drive(opt.clients, int64(spec.warm), time.Time{}); d.failed > 0 {
		sys.close()
		return nil, fmt.Errorf("warm-up: %d requests failed, first: %w", d.failed, d.firstErr)
	}
	return sys, nil
}

func startFarm(seed int64, tr *farmTrace) (urls []string, closeFn func(), err error) {
	if tr == nil {
		farm, err := adc.NewHTTPFarm(adc.HTTPFarmConfig{
			Proxies: farmProxies, SingleTable: farmSingle, MultipleTable: farmMultiple,
			CachingTable: farmCaching, Seed: seed,
		})
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < farmProxies; i++ {
			u, err := farm.ProxyURL(i)
			if err != nil {
				farm.Close() //nolint:errcheck // already on the error path
				return nil, nil, err
			}
			urls = append(urls, u)
		}
		return urls, func() { farm.Close() }, nil //nolint:errcheck // servers on loopback; nothing to recover
	}

	origin, err := httpproxy.NewOrigin()
	if err != nil {
		return nil, nil, err
	}
	var proxies []*httpproxy.Proxy
	stop := func() {
		for _, p := range proxies {
			p.Close() //nolint:errcheck // servers on loopback; nothing to recover
		}
		origin.Close() //nolint:errcheck // as above
	}
	// One pooled transport under all proxies, as the program's shared
	// client has.
	base := httpproxy.NewTransport()
	book := make(map[ids.NodeID]string, farmProxies)
	for i := 0; i < farmProxies; i++ {
		p, err := httpproxy.NewProxy(httpproxy.Config{
			ID:        ids.NodeID(i),
			Tables:    core.Config{SingleSize: farmSingle, MultipleSize: farmMultiple, CachingSize: farmCaching},
			OriginURL: origin.URL(),
			Seed:      seed,
			Client:    &http.Client{Transport: &timingRT{base: base, node: i, origin: origin.URL(), tr: tr}},
		})
		if err != nil {
			stop()
			return nil, nil, err
		}
		proxies = append(proxies, p)
		book[p.ID()] = p.URL()
		urls = append(urls, p.URL())
	}
	for _, p := range proxies {
		p.SetPeers(book)
	}
	return urls, func() { stop(); base.CloseIdleConnections() }, nil
}

// timingRT is the timing decorator around a proxy's upstream calls: one
// span per sampled outbound GET, named after where it goes.
type timingRT struct {
	base   http.RoundTripper
	node   int
	origin string
	tr     *farmTrace
}

func (t *timingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	num, ok := requestNumber(r.Header.Get(httpproxy.HeaderRequestID))
	if !ok || !t.tr.on.Load() || !t.tr.log.sampled(num) {
		return t.base.RoundTrip(r)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	end := time.Now()
	name := "forward"
	if "http://"+r.URL.Host == t.origin {
		name = "origin"
	}
	depth, _ := strconv.Atoi(r.Header.Get(httpproxy.HeaderForwards))
	t.tr.log.add(span{name: name, node: t.node, req: num, depth: depth, start: start, end: end})
	return resp, err
}

// requestNumber reverses the "b<num>" request IDs the loadgen mints.
func requestNumber(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 'b' {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	return n, err == nil
}

// window is one measured interval of a farm.
type window struct {
	driven
	hits  int
	stats metrics.ProxyStats // the proxies' counters over the window
	// Medians over the window's slices.
	rate, p50, p99 float64
	perSlice       int
}

// measure opens a window of the given length on a warmed farm.
func (s *farmSystem) measure(opt options, seconds float64) (*window, error) {
	before, err := s.gen.farmStats()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	length := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	w := &window{driven: s.gen.drive(opt.clients, int64(len(s.gen.stream)), start.Add(length))}
	after, err := s.gen.farmStats()
	if err != nil {
		return nil, err
	}
	w.stats = subStats(after, before)

	slice := length / windowSlices
	lats := make([][]float64, windowSlices)
	for _, sm := range w.samples {
		if sm.hit {
			w.hits++
		}
		if k := int(sm.start.Add(sm.lat).Sub(start) / slice); k < windowSlices {
			lats[k] = append(lats[k], float64(sm.lat.Nanoseconds())/1000)
		}
	}
	var rates, p50s, p99s, counts []float64
	for _, l := range lats {
		if len(l) == 0 {
			continue
		}
		sort.Float64s(l)
		rates = append(rates, float64(len(l))/slice.Seconds())
		p50s = append(p50s, quantile(l, 0.50))
		p99s = append(p99s, quantile(l, 0.99))
		counts = append(counts, float64(len(l)))
	}
	w.rate, w.p50, w.p99, w.perSlice = median(rates), median(p50s), median(p99s), int(median(counts))
	return w, nil
}

// subStats is a-b over the counters the layer table reports.
func subStats(a, b metrics.ProxyStats) metrics.ProxyStats {
	return metrics.ProxyStats{
		Requests:        a.Requests - b.Requests,
		LocalHits:       a.LocalHits - b.LocalHits,
		ForwardLearned:  a.ForwardLearned - b.ForwardLearned,
		ForwardRandom:   a.ForwardRandom - b.ForwardRandom,
		ForwardOrigin:   a.ForwardOrigin - b.ForwardOrigin,
		LoopsDetected:   a.LoopsDetected - b.LoopsDetected,
		CacheInsertions: a.CacheInsertions - b.CacheInsertions,
		CacheEvictions:  a.CacheEvictions - b.CacheEvictions,
		CoalescedMisses: a.CoalescedMisses - b.CoalescedMisses,
		Shed:            a.Shed - b.Shed,
	}
}

// account folds a window's request counts and failures into the report.
func (w *window) account(r *report, what string) {
	r.Attempted += len(w.samples) + w.failed
	r.Failed += w.failed
	if w.failed > 0 {
		r.fail(fmt.Sprintf("%s: %d of %d requests failed, first: %v", what, w.failed, len(w.samples)+w.failed, w.firstErr))
	}
	if len(w.samples) == 0 {
		r.fail(what + ": no request completed")
	}
}

// runFarm measures one farm workload end to end, tracing off. Each of
// the run's set-ups is measured for its share of the run's seconds, so the
// reported rate and quantiles are medians over independent farms: one
// unlucky start or one disturbed stretch of time cannot decide them.
func runFarm(opt options, spec farmSpec) (*report, error) {
	r := newReport()
	spec = spec.scaled(opt.scale)
	if err := checkSeedMatters(spec.stream, opt.seed); err != nil {
		r.fail(err.Error())
	}
	var setups, rates, p50s, p99s []float64
	var replies, hits, visits, perSlice float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		sys, err := setupFarm(opt, spec, nil, opt.seconds/setupRepeats)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		w, err := sys.measure(opt, opt.seconds/setupRepeats)
		sys.close()
		if err != nil {
			return nil, err
		}
		w.account(r, fmt.Sprintf("window %d", i+1))
		rates, p50s, p99s = append(rates, w.rate), append(p50s, w.p50), append(p99s, w.p99)
		replies += float64(len(w.samples))
		hits += float64(w.hits)
		visits += float64(w.stats.Requests)
		perSlice = float64(w.perSlice)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.Values["setup_s"] = median(setups)
	r.Values["req_per_s"] = median(rates)
	r.Values["latency_us"] = median(p50s)
	r.Values["latency_p99_us"] = median(p99s)
	r.Values["hit_rate"] = ratio(hits, replies)
	r.Values["hops"] = ratio(visits, replies)
	r.Values["ok_share"] = ratio(replies, float64(r.Attempted))
	r.Values["peak_rss_mb"] = rss
	r.note(fmt.Sprintf("per farm: %.0f req/s, p50 %.1f us, p99 %.0f us", rates, p50s, p99s))
	r.note(fmt.Sprintf("%.0f verified replies from %d closed-loop clients over %d farms; rate and quantiles are medians over the farms of medians over %d slices of about %.0f samples",
		replies, opt.clients, setupRepeats, windowSlices, perSlice))
	return r, nil
}

// runFarmTraced produces the per-layer numbers of one farm workload: an
// untraced reference window, a traced window on a hand-wired farm, the
// three floors and the table replay.
func runFarmTraced(opt options, spec farmSpec) (*report, error) {
	r := newReport()
	spec = spec.scaled(opt.scale)
	third := opt.seconds / 3

	genStart := time.Now()
	probe, err := spec.stream(100_000, opt.seed)
	if err != nil {
		return nil, err
	}
	r.Values["workload.next_ns_per_req"] = float64(time.Since(genStart).Nanoseconds()) / float64(len(probe))

	ref, err := setupFarm(opt, spec, nil, third)
	if err != nil {
		return nil, err
	}
	before := snapshotProcess()
	refWin, err := ref.measure(opt, third)
	after := snapshotProcess()
	ref.close()
	if err != nil {
		return nil, err
	}
	refWin.account(r, "untraced window")
	before.costUntil(r, after, float64(len(refWin.samples)))

	tr := &farmTrace{log: newSpanLog(opt.sampleEvery(farmSampleEvery))}
	sys, err := setupFarm(opt, spec, tr, third)
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	win, err := sys.measure(opt, third)
	tr.on.Store(false)
	sys.close()
	if err != nil {
		return nil, err
	}
	win.account(r, "traced window")
	for _, sm := range win.samples {
		if tr.log.sampled(uint64(sm.num)) {
			tr.log.add(span{name: "client", node: -1, req: uint64(sm.num), start: sm.start, end: sm.start.Add(sm.lat)})
		}
	}

	chain := farmLayers(r, tr.log)
	n := float64(len(win.samples))
	st := win.stats
	r.Values["httpproxy.local_hit_share"] = ratio(float64(st.LocalHits), float64(st.Requests))
	r.Values["httpproxy.forward_learned_per_req"] = ratio(float64(st.ForwardLearned), n)
	r.Values["httpproxy.forward_random_per_req"] = ratio(float64(st.ForwardRandom), n)
	r.Values["httpproxy.forward_origin_per_req"] = ratio(float64(st.ForwardOrigin), n)
	r.Values["httpproxy.loops_per_req"] = ratio(float64(st.LoopsDetected), n)
	r.Values["httpproxy.cache_insertions_per_req"] = ratio(float64(st.CacheInsertions), n)
	r.Values["httpproxy.cache_evictions_per_req"] = ratio(float64(st.CacheEvictions), n)
	r.Values["httpproxy.coalesced_per_req"] = ratio(float64(st.CoalescedMisses), n)
	r.Values["httpproxy.shed_per_req"] = ratio(float64(st.Shed), n)

	if err := farmFloors(r, opt); err != nil {
		return nil, err
	}
	replayTables(r, core.Config{SingleSize: farmSingle, MultipleSize: farmMultiple, CachingSize: farmCaching}, probe)
	r.Values["trace.overhead_share"] = 1 - ratio(win.rate, refWin.rate)
	zeroLayers(r, opt.workload)

	// The budget: what the floors and the table replay explain of the
	// untraced median latency, and what they leave unexplained.
	nullShare := chain * r.Values["nethttp.null_rtt_us_p50"]
	originShare := r.Values["httpproxy.origin_fetches_per_req"] * r.Values["origin.rtt_us_p50"]
	tableShare := chain * r.Values["core.update_ns_per_op"] / 1000
	residual := refWin.p50 - nullShare - originShare - tableShare
	r.Values["budget.residual_us"] = residual
	pct := func(v float64) float64 { return 100 * ratio(v, refWin.p50) }
	r.note(fmt.Sprintf("budget of the untraced median request (%.1f us): %.2f visits x null net/http RTT %.1f us (%.0f%%) · origin fetches %.1f us (%.0f%%) · table updates %.2f us (%.1f%%) · residual (handler, headers, locks, copies) %.1f us (%.0f%%)",
		refWin.p50, chain, nullShare, pct(nullShare), originShare, pct(originShare), tableShare, pct(tableShare), residual, pct(residual)))

	if err := tr.log.writeChrome(opt.tracePath()); err != nil {
		return nil, err
	}
	r.note(fmt.Sprintf("untraced window %d replies at %.0f/s, traced window %d replies at %.0f/s", len(refWin.samples), refWin.rate, len(win.samples), win.rate))
	r.note(fmt.Sprintf("%d spans of 1-in-%d requests written to %s", tr.log.len(), tr.log.every, opt.tracePath()))
	return r, nil
}

// farmLayers turns the sampled spans into the httpproxy.* span metrics
// and returns the mean chain length (proxy visits per request). A span's
// self time is its duration minus its child's: the client span's child is
// the entry proxy's outbound call (depth 1), a forward span's child is
// the next proxy's outbound call (depth+1).
func farmLayers(r *report, log *spanLog) (chainMean float64) {
	byReq := make(map[uint64][]span)
	for _, s := range log.spans {
		byReq[s.req] = append(byReq[s.req], s)
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }
	var client, forward, origin, entrySelf, hopSelf []float64
	var forwards, origins, chainSum, chainMax, requests float64
	for _, spans := range byReq {
		sort.Slice(spans, func(i, j int) bool { return spans[i].depth < spans[j].depth })
		if spans[0].name != "client" {
			continue // in flight when the window opened or closed
		}
		requests++
		chain := 1.0
		for i, s := range spans {
			var child time.Duration
			if i+1 < len(spans) && spans[i+1].depth == s.depth+1 {
				child = spans[i+1].dur()
			}
			switch s.name {
			case "client":
				client = append(client, us(s.dur()))
				entrySelf = append(entrySelf, us(s.dur()-child))
			case "forward":
				forward = append(forward, us(s.dur()))
				hopSelf = append(hopSelf, us(s.dur()-child))
				forwards++
				chain++
			case "origin":
				origin = append(origin, us(s.dur()))
				origins++
			}
		}
		chainSum += chain
		chainMax = max(chainMax, chain)
	}
	for _, l := range [][]float64{client, forward, origin, entrySelf, hopSelf} {
		sort.Float64s(l)
	}
	r.Values["httpproxy.client_span_us_p50"] = quantile(client, 0.50)
	r.Values["httpproxy.client_span_us_p99"] = quantile(client, 0.99)
	r.Values["httpproxy.forward_span_us_p50"] = quantile(forward, 0.50)
	r.Values["httpproxy.forward_span_us_p99"] = quantile(forward, 0.99)
	r.Values["httpproxy.origin_span_us_p50"] = quantile(origin, 0.50)
	r.Values["httpproxy.origin_span_us_p99"] = quantile(origin, 0.99)
	r.Values["httpproxy.entry_self_us_p50"] = quantile(entrySelf, 0.50)
	r.Values["httpproxy.hop_self_us_p50"] = quantile(hopSelf, 0.50)
	r.Values["httpproxy.forwards_per_req"] = ratio(forwards, requests)
	r.Values["httpproxy.origin_fetches_per_req"] = ratio(origins, requests)
	r.Values["httpproxy.chain_len_mean"] = ratio(chainSum, requests)
	r.Values["httpproxy.chain_len_max"] = chainMax
	r.note(fmt.Sprintf("span samples: %d client, %d forward, %d origin (a p99 of fewer than 1000 samples is the maximum or close to it)", len(client), len(forward), len(origin)))
	if requests == 0 {
		r.fail("traced window: no sampled request has a client span")
	}
	return ratio(chainSum, requests)
}

// farmFloors times the three reference round trips with the client and
// the concurrency the load generator uses: a handler that does nothing,
// the origin alone, and one proxy serving from its cache.
func farmFloors(r *report, opt options) error {
	client := httpproxy.NewClient()
	defer client.CloseIdleConnections()
	floor := floorClient{client: client, clients: opt.clients}
	n := max(int(floorRequests*opt.scale), 100)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("null server listen: %w", err)
	}
	nullBody := bytes.Repeat([]byte("x"), 40)
	null := &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(nullBody) }),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go null.Serve(ln)  //nolint:errcheck // returns ErrServerClosed on Close
	defer null.Close() //nolint:errcheck // server on loopback; nothing to recover
	v, err := floor.p50("http://"+ln.Addr().String()+"/", n, func(_ *http.Response, body []byte) error {
		if !bytes.Equal(body, nullBody) {
			return fmt.Errorf("null handler body %q", body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.Values["nethttp.null_rtt_us_p50"] = v

	origin, err := httpproxy.NewOrigin()
	if err != nil {
		return err
	}
	defer origin.Close() //nolint:errcheck // server on loopback; nothing to recover
	const obj = ids.ObjectID(1)
	payload := func(_ *http.Response, body []byte) error {
		if !bytes.Equal(body, httpproxy.Payload(obj)) {
			return fmt.Errorf("payload mismatch: %q", body)
		}
		return nil
	}
	if v, err = floor.p50(httpproxy.ObjectURL(origin.URL(), obj), n, payload); err != nil {
		return err
	}
	r.Values["origin.rtt_us_p50"] = v

	p, err := httpproxy.NewProxy(httpproxy.Config{
		ID:        0,
		Tables:    core.Config{SingleSize: farmSingle, MultipleSize: farmMultiple, CachingSize: farmCaching},
		OriginURL: origin.URL(),
		Seed:      opt.seed,
	})
	if err != nil {
		return err
	}
	defer p.Close() //nolint:errcheck // server on loopback; nothing to recover
	p.SetPeers(map[ids.NodeID]string{0: p.URL()})
	// A lone proxy caches an object after a few requests for it.
	for i := 0; p.CacheLen() == 0; i++ {
		if i == 100 {
			return fmt.Errorf("lone proxy did not cache %v in 100 requests", obj)
		}
		if _, err := floor.get(httpproxy.ObjectURL(p.URL(), obj), "f0", payload); err != nil {
			return err
		}
	}
	v, err = floor.p50(httpproxy.ObjectURL(p.URL(), obj), n, func(resp *http.Response, body []byte) error {
		if resp.Header.Get(httpproxy.HeaderOrigin) == "1" {
			return fmt.Errorf("cached object served from the origin")
		}
		return payload(resp, body)
	})
	if err != nil {
		return err
	}
	r.Values["httpproxy.local_hit_rtt_us_p50"] = v
	return nil
}

// floorClient times reference round trips under the workloads' own
// concurrency, so a floor pays the same scheduler and wake-up costs as a
// hop of a measured request does.
type floorClient struct {
	client  *http.Client
	clients int
}

// p50 is the median round trip of n verified GETs of url. Request IDs
// differ between the concurrent clients (a proxy treats an ID it has in
// flight as a forwarding loop) but may repeat from call to call.
func (f floorClient) p50(url string, n int, check func(*http.Response, []byte) error) (float64, error) {
	parts := make([][]float64, f.clients)
	errs := make([]error, f.clients)
	var wg sync.WaitGroup
	wg.Add(f.clients)
	for w := 0; w < f.clients; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += f.clients {
				lat, err := f.get(url, "f"+strconv.Itoa(i), check)
				if err != nil {
					errs[w] = fmt.Errorf("floor GET %s: %w", url, err)
					return
				}
				parts[w] = append(parts[w], float64(lat.Nanoseconds())/1000)
			}
		}(w)
	}
	wg.Wait()
	var lats []float64
	for w, p := range parts {
		if errs[w] != nil {
			return 0, errs[w]
		}
		lats = append(lats, p...)
	}
	sort.Float64s(lats)
	return quantile(lats, 0.5), nil
}

func (f floorClient) get(url, id string, check func(*http.Response, []byte) error) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set(httpproxy.HeaderRequestID, id)
	start := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // read side
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	return lat, check(resp, body)
}
