// Command adctrace inspects request-path traces recorded by adcsim -trace
// (JSON Lines, one event per line).
//
//	adctrace summary trace.jsonl             # event counts, tree census, convergence
//	adctrace request 0:17 trace.jsonl        # one request's tree, every attempt and hop
//	adctrace converge trace.jsonl            # per-object convergence times
//	adctrace converge www.xy42 trace.jsonl   # one object's convergence
//	adctrace validate trace.jsonl            # event schema, then no orphaned tree
//	adctrace chrome trace.jsonl > t.json     # one process per request, one row per node
//
// Event traces rebuild as spans (obs.EventSpans), so their trees, census,
// listing and Chrome export are those of the farm subcommand, which reads
// cross-proxy span dumps (the HTTP farm's distributed traces, whose server
// and forward spans carry each hop's table outcome and route reason),
// merges them with clock-skew alignment and reports the request-tree
// census:
//
//	adctrace farm run.spans.json             # file from adcload -trace-dump
//	adctrace farm http://host:7001 ...       # scrape the /debug/trace rings of adcfarm -trace-sample 1
//	adctrace farm -min-complete 0.99 ...     # CI gate: fail on orphaned trees
//	adctrace farm -chrome t.json ...         # flame chart per request
//
// Request IDs are accepted as client:counter (the req(c:n) display form)
// or as a raw 64-bit value; objects as www.xyN or a raw value.
package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adctrace:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: adctrace <summary|request|converge|validate|chrome> [arguments] <trace.jsonl from adcsim -trace>\n" +
		"       adctrace farm [flags] <dumps.json from adcload -trace-dump | proxy-url... of adcfarm -trace-sample N>")
}

func run(args []string) error {
	if len(args) >= 1 && args[0] == "farm" {
		return farm(args[1:])
	}
	if len(args) < 2 {
		return usage()
	}
	cmd := args[0]
	file := args[len(args)-1]
	rest := args[1 : len(args)-1]

	events, err := loadTrace(file)
	if err != nil {
		return err
	}

	switch cmd {
	case "summary":
		if len(rest) != 0 {
			return usage()
		}
		return summary(events)
	case "request":
		if len(rest) != 1 {
			return fmt.Errorf("usage: adctrace request <id> <trace.jsonl>")
		}
		id, err := parseRequestID(rest[0])
		if err != nil {
			return err
		}
		return request(events, id)
	case "converge":
		if len(rest) > 1 {
			return fmt.Errorf("usage: adctrace converge [object] <trace.jsonl>")
		}
		var obj *ids.ObjectID
		if len(rest) == 1 {
			o, err := parseObjectID(rest[0])
			if err != nil {
				return err
			}
			obj = &o
		}
		return converge(events, obj)
	case "validate":
		if len(rest) != 0 {
			return usage()
		}
		if err := obs.Validate(events); err != nil {
			return err
		}
		trees := obs.BuildSpanTrees(obs.EventSpans(events))
		for _, t := range trees {
			if t.State() == obs.TreeOrphaned {
				return fmt.Errorf("request %v: orphaned tree (its first attempt or a retry's predecessor is not in the trace)",
					ids.RequestID(t.Trace))
			}
		}
		fmt.Printf("%s: %d events, well-formed, %d request trees, none orphaned\n", file, len(events), len(trees))
		return nil
	case "chrome":
		if len(rest) != 0 {
			return usage()
		}
		return obs.WriteChromeSpans(os.Stdout, obs.EventSpans(events))
	default:
		return usage()
	}
}

func loadTrace(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read side
	return obs.ReadJSONL(f)
}

// summary prints event-kind counts, the request-tree census and the
// convergence overview.
func summary(events []obs.Event) error {
	if len(events) == 0 {
		fmt.Println("empty trace")
		return nil
	}
	var counts [64]int
	for _, e := range events {
		if int(e.Kind) < len(counts) {
			counts[e.Kind]++
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "kind\tevents")
	for k, n := range counts {
		if n > 0 {
			fmt.Fprintf(w, "%s\t%d\n", obs.Kind(k), n)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}

	c := obs.CensusSpanTrees(obs.BuildSpanTrees(obs.EventSpans(events)))
	fmt.Printf("\nrequests       %d trees: %d complete, %d truncated (retried or undelivered), %d orphaned\n",
		c.Trees, c.Complete, c.Truncated, c.Orphaned)

	sum := obs.SummarizeConvergence(obs.ConvergenceTimes(events))
	if sum.Objects > 0 {
		fmt.Printf("convergence    %d/%d objects agreed (mean %.0f, max %d ticks to agree)\n",
			sum.Converged, sum.Objects, sum.MeanTime, sum.MaxTime)
	}
	return nil
}

// request prints the tree of the request id is an attempt of.
func request(events []obs.Event, id ids.RequestID) error {
	spans := obs.EventSpans(events)
	for _, s := range spans {
		// The attempt span, or a step of an attempt whose inject is missing.
		if s.ID != uint64(id) && s.Parent != uint64(id) {
			continue
		}
		var tree []obs.Span
		for _, o := range spans {
			if o.Trace == s.Trace {
				tree = append(tree, o)
			}
		}
		obs.FormatSpanTree(os.Stdout, obs.BuildSpanTrees(tree)[0])
		return nil
	}
	return fmt.Errorf("request %v not in trace", id)
}

// converge prints per-object convergence times, or one object's.
func converge(events []obs.Event, only *ids.ObjectID) error {
	m := obs.ConvergenceTimes(events)
	if only != nil {
		c, ok := m[*only]
		if !ok {
			return fmt.Errorf("object %v not in trace", *only)
		}
		printConvergence(os.Stdout, c)
		return nil
	}

	objs := make([]ids.ObjectID, 0, len(m))
	for obj := range m {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "object\tfirst seen\tconverged\tstable from\ttime to agree\tlocation\tbelievers")
	for _, obj := range objs {
		c := m[obj]
		if c.Converged {
			fmt.Fprintf(w, "%v\t%d\tyes\t%d\t%d\t%v\t%d\n",
				c.Obj, c.FirstSeen, c.StableFrom, c.Time(), c.FinalLoc, c.Believers)
		} else {
			fmt.Fprintf(w, "%v\t%d\tno\t-\t-\t-\t%d\n", c.Obj, c.FirstSeen, c.Believers)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	sum := obs.SummarizeConvergence(m)
	fmt.Printf("\n%d/%d objects agreed (mean %.0f, max %d ticks to agree)\n",
		sum.Converged, sum.Objects, sum.MeanTime, sum.MaxTime)
	return nil
}

func printConvergence(w *os.File, c *obs.Convergence) {
	fmt.Fprintf(w, "object      %v\n", c.Obj)
	fmt.Fprintf(w, "first seen  %d\n", c.FirstSeen)
	if c.Converged {
		fmt.Fprintf(w, "converged   yes, stable from %d (%d ticks after first sight)\n",
			c.StableFrom, c.Time())
		fmt.Fprintf(w, "location    %v (%d believers)\n", c.FinalLoc, c.Believers)
	} else {
		fmt.Fprintf(w, "converged   no (%d believers at trace end)\n", c.Believers)
	}
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

// parseObjectID accepts the www.xyN display form or a raw value.
func parseObjectID(s string) (ids.ObjectID, error) {
	s = strings.TrimPrefix(s, "www.xy")
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad object id %q (want www.xyN or a raw value)", s)
	}
	return ids.ObjectID(v), nil
}
