// Command adctop is a live terminal dashboard for a running ADC proxy
// farm. It polls every proxy's /metrics endpoint (the internal/promtext
// exposition the proxies serve) and renders farm-wide rates, per-stage
// latency quantiles and per-proxy health in place — the thing to keep open
// while an adcload -faults run kills proxies underneath it:
//
//	adctop http://127.0.0.1:40001 http://127.0.0.1:40002 ...
//	adctop -interval 2s ...
//	adctop -once ...                  # one snapshot, no screen control
//
// Rates and quantiles are computed over the polling window (the delta
// between consecutive scrapes), so the display tracks what the farm is
// doing NOW; -once has no window and falls back to lifetime values. A proxy
// that fails to answer shows as DOWN and stays in the table — watching a
// killed proxy disappear from serving while its row goes dark is the whole
// point during chaos runs.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/adc-sim/adc/internal/httpproxy"
	"github.com/adc-sim/adc/internal/metrics"
	"github.com/adc-sim/adc/internal/promtext"
)

// snapshot is one proxy's parsed /metrics scrape. Every field is read
// back through the definition that wrote it: the counter, gauge and stage
// tables of internal/metrics, and httpproxy's family names and PeerState.
type snapshot struct {
	target string
	at     time.Time
	err    error // scrape or parse failure; other fields are zero

	proxy     string
	stats     metrics.ProxyStats
	gauges    metrics.Gauges
	peersDown int
	// stages holds each stage's cumulative latency buckets.
	stages [metrics.NumStages][]promtext.Bucket
}

// scrape fetches and parses one proxy's exposition.
func scrape(client *http.Client, target string) *snapshot {
	s := &snapshot{target: target, at: time.Now()}
	resp, err := client.Get(strings.TrimRight(target, "/") + "/metrics")
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("/metrics status %d", resp.StatusCode)
		return s
	}
	d, err := promtext.Parse(resp.Body)
	if err != nil {
		s.err = err
		return s
	}
	if f := d.Families[httpproxy.ProxyInfoFamily]; f != nil && len(f.Samples) > 0 {
		s.proxy = f.Samples[0].Label("proxy")
	}
	s.stats = metrics.ReadProm(d)
	s.gauges = metrics.ReadGauges(d)
	s.stages = metrics.ReadStages(d)
	if f := d.Families[httpproxy.PeerStateFamily]; f != nil {
		for _, smp := range f.Samples {
			if httpproxy.PeerState(smp.Value) == httpproxy.PeerDown {
				s.peersDown++
			}
		}
	}
	return s
}

// scrapeAll polls every target concurrently, preserving target order.
func scrapeAll(client *http.Client, targets []string) []*snapshot {
	out := make([]*snapshot, len(targets))
	var wg sync.WaitGroup
	wg.Add(len(targets))
	for i, t := range targets {
		go func(i int, t string) {
			defer wg.Done()
			out[i] = scrape(client, t)
		}(i, t)
	}
	wg.Wait()
	return out
}

// counterDelta is cur-prev guarded against a counter reset (proxy restart):
// a negative delta reports the post-restart absolute value instead.
func counterDelta(cur, prev uint64) uint64 {
	if cur >= prev {
		return cur - prev
	}
	return cur
}

// deltaBuckets subtracts the previous scrape's cumulative buckets, leaving
// the polling window's observations. Shape mismatch or a reset falls back
// to the current cumulative buckets.
func deltaBuckets(cur, prev []promtext.Bucket) []promtext.Bucket {
	if len(prev) != len(cur) {
		return cur
	}
	out := make([]promtext.Bucket, len(cur))
	for i, b := range cur {
		if prev[i].LE != b.LE || prev[i].Cum > b.Cum {
			return cur
		}
		out[i] = promtext.Bucket{LE: b.LE, Cum: b.Cum - prev[i].Cum}
	}
	return out
}

// sumBuckets folds b into acc elementwise (equal shapes; every proxy
// exposes the same bounds). A nil acc starts from b.
func sumBuckets(acc, b []promtext.Bucket) []promtext.Bucket {
	if acc == nil {
		acc = make([]promtext.Bucket, len(b))
		copy(acc, b)
		return acc
	}
	if len(acc) != len(b) {
		return acc
	}
	for i := range acc {
		acc[i].Cum += b[i].Cum
	}
	return acc
}

func fmtSeconds(sec float64) string {
	if sec <= 0 {
		return "-"
	}
	return time.Duration(sec * float64(time.Second)).Round(10 * time.Microsecond).String()
}

func fmtRate(v uint64, window time.Duration) string {
	if window <= 0 {
		return fmt.Sprint(v) // -once: lifetime totals, not rates
	}
	return fmt.Sprintf("%.0f", float64(v)/window.Seconds())
}

// render writes one dashboard frame. prev supplies the deltas over the
// interval window; nil prev (or a target missing from it) renders lifetime
// values, which is what -once wants (interval 0 labels them as such).
func render(w io.Writer, cur, prev []*snapshot, interval time.Duration) {
	prevFor := make(map[string]*snapshot)
	for _, s := range prev {
		if s != nil && s.err == nil {
			prevFor[s.target] = s
		}
	}

	type row struct {
		s *snapshot
		d metrics.ProxyStats // the window's requests, hits, sheds and coalesced misses
	}
	var (
		rows      []row
		up        int
		stageSums [metrics.NumStages][]promtext.Bucket
		tot       metrics.ProxyStats
	)
	for _, s := range cur {
		r := row{s: s}
		if s.err == nil {
			up++
			p := prevFor[s.target]
			if p == nil {
				p = &snapshot{} // lifetime values: deltas against zero
			}
			r.d = metrics.ProxyStats{
				Requests:        counterDelta(s.stats.Requests, p.stats.Requests),
				LocalHits:       counterDelta(s.stats.LocalHits, p.stats.LocalHits),
				Shed:            counterDelta(s.stats.Shed, p.stats.Shed),
				CoalescedMisses: counterDelta(s.stats.CoalescedMisses, p.stats.CoalescedMisses),
			}
			for st, b := range s.stages {
				if len(b) > 0 {
					stageSums[st] = sumBuckets(stageSums[st], deltaBuckets(b, p.stages[st]))
				}
			}
			tot.Add(r.d)
		}
		rows = append(rows, r)
	}

	window := interval // 0 under -once: totals instead of rates
	hitPct := 0.0
	if tot.Requests > 0 {
		hitPct = 100 * float64(tot.LocalHits) / float64(tot.Requests)
	}
	unit := "req/s"
	if window == 0 {
		unit = "req (lifetime)"
	}
	fmt.Fprintf(w, "adc farm  %d/%d up  %s %s  local-hit %.1f%%  shed %s  coalesced %s  %s\n\n",
		up, len(cur), fmtRate(tot.Requests, window), unit, hitPct,
		fmtRate(tot.Shed, window), fmtRate(tot.CoalescedMisses, window),
		time.Now().Format("15:04:05"))

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tcount\tp50\tp99")
	for st, b := range stageSums {
		if len(b) == 0 || b[len(b)-1].Cum == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", metrics.Stage(st), b[len(b)-1].Cum,
			fmtSeconds(promtext.HistQuantile(b, 0.50)),
			fmtSeconds(promtext.HistQuantile(b, 0.99)))
	}
	fmt.Fprintln(tw)

	fmt.Fprintf(tw, "proxy\t%s\tshare\tlhit%%\tshed\tqueue\tdown\tspans\tuptime\n", unit)
	for _, r := range rows {
		s := r.s
		if s.err != nil {
			fmt.Fprintf(tw, "%s\tDOWN\t-\t-\t-\t-\t-\t-\t%v\n", s.target, scrapeErr(s.err))
			continue
		}
		share, lhit := 0.0, 0.0
		if tot.Requests > 0 {
			share = 100 * float64(r.d.Requests) / float64(tot.Requests)
		}
		if r.d.Requests > 0 {
			lhit = 100 * float64(r.d.LocalHits) / float64(r.d.Requests)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f%%\t%.1f\t%s\t%.0f\t%d\t%.0f\t%v\n",
			s.proxy, fmtRate(r.d.Requests, window), share, lhit,
			fmtRate(r.d.Shed, window), s.gauges.QueueDepth, s.peersDown, s.gauges.TraceSpans,
			time.Duration(s.gauges.UptimeSeconds*float64(time.Second)).Round(time.Second))
	}
	tw.Flush() //nolint:errcheck // terminal write
}

// scrapeErr compresses a scrape error to something that fits a cell.
func scrapeErr(err error) string {
	msg := err.Error()
	if i := strings.LastIndex(msg, ": "); i >= 0 {
		msg = msg[i+2:]
	}
	if len(msg) > 40 {
		msg = msg[:40]
	}
	return msg
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adctop:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adctop", flag.ContinueOnError)
	interval := fs.Duration("interval", time.Second, "polling interval (positive unless -once)")
	once := fs.Bool("once", false, "print one snapshot and exit (no screen control)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := fs.Args()
	switch {
	case len(targets) == 0:
		return errors.New("usage: adctop [-interval d] [-once] <proxy-url>...")
	case *interval <= 0 && !*once:
		return fmt.Errorf("-interval must be positive, got %v", *interval)
	}
	client := &http.Client{Timeout: 5 * time.Second}

	if *once {
		snaps := scrapeAll(client, targets)
		var buf bytes.Buffer
		render(&buf, snaps, nil, 0)
		_, _ = os.Stdout.Write(buf.Bytes())
		for _, s := range snaps {
			if s.err == nil {
				return nil
			}
		}
		return errors.New("no proxy answered")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	prev := scrapeAll(client, targets)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			fmt.Println()
			return nil
		case <-ticker.C:
			cur := scrapeAll(client, targets)
			var buf bytes.Buffer
			buf.WriteString("\x1b[H\x1b[2J") // home + clear: redraw in place
			render(&buf, cur, prev, *interval)
			_, _ = os.Stdout.Write(buf.Bytes())
			prev = cur
		}
	}
}
