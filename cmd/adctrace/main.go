// Command adctrace reads request-path traces, span dumps (obs.SpanDump),
// and reports on the request trees they hold. A dump file comes from
// adcsim -trace (one dump of the simulator's events as spans) or adcload
// -trace-dump (one dump per proxy, whose server and forward spans carry
// each hop's table outcome and route reason); proxy URLs are scraped live.
// It merges the dumps with clock-skew alignment, rebuilds one tree per
// request and prints the tree census, the spans per stage and the worst
// trees.
//
//	adctrace t.spans.json                  # file from adcsim -trace or adcload -trace-dump
//	adctrace http://host:7001 ...          # scrape the /debug/trace rings of adcload -serve -trace-sample 1
//	adctrace -request 0:17 t.spans.json    # one request's tree, every attempt and hop
//	adctrace -min-complete 1 t.spans.json  # gate: fail on any orphaned tree
//	adctrace -chrome t.json t.spans.json   # flame chart per request
//	adctrace -json t.spans.json            # the census as JSON
//
// Request IDs are accepted as client:counter (the req(c:n) display form)
// or as a raw 64-bit trace or span ID.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/adc-sim/adc/internal/clilog"
	"github.com/adc-sim/adc/internal/httpproxy"
	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adctrace:", err)
		os.Exit(1)
	}
}

// census is the -json schema.
type census struct {
	Dumps            int            `json:"dumps"`
	Spans            int            `json:"spans"`
	Dropped          uint64         `json:"dropped"`
	Trees            int            `json:"trees"`
	Complete         int            `json:"complete"`
	Truncated        int            `json:"truncated"`
	Orphaned         int            `json:"orphaned"`
	CompleteFraction float64        `json:"complete_fraction"`
	Stages           map[string]int `json:"stages"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("adctrace", flag.ContinueOnError)
	request := fs.String("request", "", "print this request's tree (client:counter, or a raw trace or span ID) instead of the worst trees")
	minComplete := fs.Float64("min-complete", 0,
		"exit nonzero when the complete+truncated tree fraction falls below this (1: no orphaned tree)")
	worst := fs.Int("worst", 3, "show up to this many non-complete trees")
	chromeOut := fs.String("chrome", "", "also write a Chrome trace_event export to this file")
	jsonOut := fs.Bool("json", false, "emit the census as JSON on stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := fs.Args()
	if len(targets) == 0 {
		return fmt.Errorf("usage: adctrace [-request id] [-chrome out.json] [-json] [-worst n] [-min-complete f] <dumps.json | proxy-url...>")
	}
	if *jsonOut {
		if err := clilog.Refuse(fs, "is not read with -json", "request", "worst"); err != nil {
			return err
		}
	}
	var id uint64
	if *request != "" {
		parsed, err := parseRequestID(*request)
		if err != nil {
			return err
		}
		id = uint64(parsed)
	}

	dumps, err := loadDumps(targets)
	if err != nil {
		return err
	}
	var dropped uint64
	for _, d := range dumps {
		dropped += d.Dropped
	}
	// Nothing reads dumps after the merge, which lets the collector take
	// back the per-dump spans that MergeDumps copied out of several dumps.
	nDumps := len(dumps)
	spans := obs.MergeDumps(dumps)
	trees := obs.BuildSpanTrees(spans)
	c := obs.CensusSpanTrees(trees)
	stages := map[string]int{}
	for _, s := range spans {
		stages[s.Stage]++
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(census{
			Dumps: nDumps, Spans: c.Spans, Dropped: dropped,
			Trees: c.Trees, Complete: c.Complete, Truncated: c.Truncated,
			Orphaned: c.Orphaned, CompleteFraction: c.CompleteFraction(), Stages: stages,
		}); err != nil {
			return err
		}
	} else {
		fmt.Printf("dumps     %d, %d spans (%d dropped from rings)\n", nDumps, c.Spans, dropped)
		fmt.Printf("trees     %d: %d complete, %d truncated, %d orphaned\n",
			c.Trees, c.Complete, c.Truncated, c.Orphaned)
		fmt.Printf("complete  %.4f  (complete+truncated over trees)\n\n", c.CompleteFraction())
		if err := printStages(stages); err != nil {
			return err
		}
		switch {
		case *request != "":
			t := findTree(trees, spans, id)
			if t == nil {
				return fmt.Errorf("request %s not in trace", *request)
			}
			fmt.Println()
			obs.FormatSpanTree(os.Stdout, t)
		case *worst > 0:
			printWorstTrees(trees, *worst)
		}
	}
	if *chromeOut != "" {
		if err := writeChromeFile(*chromeOut, spans); err != nil {
			return err
		}
	}
	if *minComplete > 0 && c.CompleteFraction() < *minComplete {
		return fmt.Errorf("complete fraction %.4f below -min-complete %.4f (census %+v)",
			c.CompleteFraction(), *minComplete, c)
	}
	return nil
}

// loadDumps reads span dumps from the targets: a list of http(s) proxy base
// URLs to scrape live, or a single JSON file holding []obs.SpanDump (what
// adcsim -trace and adcload -trace-dump write) or one bare obs.SpanDump (a
// saved /debug/trace response).
func loadDumps(targets []string) ([]obs.SpanDump, error) {
	if strings.HasPrefix(targets[0], "http://") || strings.HasPrefix(targets[0], "https://") {
		client := &http.Client{Timeout: 5 * time.Second}
		dumps := make([]obs.SpanDump, 0, len(targets))
		for _, t := range targets {
			// Accept either the proxy base URL or its /debug/trace directly.
			d, err := httpproxy.ScrapeTraceDump(client, strings.TrimSuffix(t, "/debug/trace"))
			if err != nil {
				return nil, err
			}
			dumps = append(dumps, d)
		}
		return dumps, nil
	}
	if len(targets) != 1 {
		return nil, fmt.Errorf("want one dump file or a list of proxy URLs, got %d files", len(targets))
	}
	f, err := os.Open(targets[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dumps, err := obs.ReadSpanDumps(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", targets[0], err)
	}
	return dumps, nil
}

// printStages lists how many spans each stage recorded: the farm's
// metrics.Stage names, or an event trace's attempts and event kinds.
func printStages(stages map[string]int) error {
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Strings(names)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "stage\tspans")
	for _, name := range names {
		fmt.Fprintf(w, "%s\t%d\n", name, stages[name])
	}
	return w.Flush()
}

// findTree returns the tree of the first span whose trace, ID or parent is
// id: an attempt of an event trace, or a step of an attempt whose inject is
// missing. Nil when no span has it.
func findTree(trees []*obs.SpanTree, spans []obs.Span, id uint64) *obs.SpanTree {
	for _, s := range spans {
		if s.Trace != id && s.ID != id && s.Parent != id {
			continue
		}
		for _, t := range trees {
			if t.Trace == s.Trace {
				return t
			}
		}
	}
	return nil
}

// printWorstTrees shows the worst reconstruction failures, orphaned before
// truncated — the first thing to look at when the census is off.
func printWorstTrees(trees []*obs.SpanTree, n int) {
	var bad []*obs.SpanTree
	for _, t := range trees {
		if t.State() != obs.TreeComplete {
			bad = append(bad, t)
		}
	}
	if len(bad) == 0 {
		return
	}
	sort.SliceStable(bad, func(i, j int) bool { return bad[i].State() > bad[j].State() })
	n = min(n, len(bad))
	fmt.Printf("\nworst %d of %d non-complete trees:\n", n, len(bad))
	for _, t := range bad[:n] {
		obs.FormatSpanTree(os.Stdout, t)
	}
}

func writeChromeFile(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeSpans(f, spans); err != nil {
		f.Close() //nolint:errcheck // already on the error path
		return err
	}
	return f.Close()
}

// parseRequestID accepts "client:counter" or a raw 64-bit value.
func parseRequestID(s string) (ids.RequestID, error) {
	if c, n, ok := strings.Cut(s, ":"); ok {
		client, err := strconv.Atoi(c)
		if err != nil || client < 0 {
			return 0, fmt.Errorf("bad request id %q: client must be a non-negative integer", s)
		}
		counter, err := strconv.ParseUint(n, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad request id %q: counter must be an integer", s)
		}
		return ids.NewRequestID(client, counter), nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad request id %q (want client:counter or a raw value)", s)
	}
	return ids.RequestID(v), nil
}
