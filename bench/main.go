// Command bench is the repository's benchmark: four named workloads over
// the simulator and the HTTP farm, the end-to-end metrics a user of either
// sees, and a layer budget measured from outside the program by timing
// calls into its public functions. BENCHMARK.json at the root of the repo
// is generated from the tables in metrics.go; README.md has the
// definitions and the reasoning.
//
//	bash bench/run.sh -seed 1                      every workload, untraced then traced
//	bash bench/run.sh -workload farm_hot -trace 1  one run, as the driver starts it
//	bash bench/run.sh -aa 10                       same code ten times: spread against each bound
//	bash bench/run.sh -manifest > BENCHMARK.json   regenerate the contract file
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// setupRepeats is how often a run sets its workload up; setup_s is the
// median, so one slow start does not decide it.
const setupRepeats = 3

// options are the knobs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// scale shrinks stream lengths and warm-ups for the smoke test; the
	// driver always runs at 1.
	scale float64
	// clients is the number of closed-loop HTTP clients (and in-flight
	// connections) of the farm workloads.
	clients int
	out     string
}

// tracePath is where a traced run flushes its sampled spans.
func (o options) tracePath() string {
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d.trace.json", o.workload, o.seed))
}

// sampleEvery scales a span sampling interval with the run, so a
// smoke-scale run still samples some requests.
func (o options) sampleEvery(full uint64) uint64 {
	return max(uint64(float64(full)*o.scale), 1)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var opt options
	var trace, aa int
	var printManifest bool
	fs.StringVar(&opt.workload, "workload", "", "run only this workload and end with the driver's JSON line (default: every workload, untraced then traced)")
	fs.Int64Var(&opt.seed, "seed", 1, "derives every request stream and the proxies' peer-selection seed")
	fs.Float64Var(&opt.seconds, "seconds", runSeconds, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from timing decorators")
	fs.Float64Var(&opt.scale, "scale", 1, "shrink streams and warm-ups (smoke tests only)")
	fs.IntVar(&opt.clients, "clients", min(runtime.NumCPU(), 2), "closed-loop HTTP clients of the farm workloads")
	fs.StringVar(&opt.out, "out", "bench/out", "directory for the traced runs' Chrome trace_event files")
	fs.IntVar(&aa, "aa", 0, "run every workload (or just -workload) this many times untraced, seeds seed..seed+N-1, and judge the spread against each bound")
	fs.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.traced = trace != 0

	if printManifest {
		doc, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		os.Stdout.Write(doc) //nolint:errcheck // nothing to do about a closed stdout
		return 0
	}
	if opt.seconds <= 0 || opt.scale <= 0 || opt.clients < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds, -scale and -clients must be positive")
		return 2
	}
	// More clients than CPUs measures the scheduler, not the farm.
	if opt.clients > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "bench: refusing to run %d clients on %d CPUs\n", opt.clients, runtime.NumCPU())
		return 2
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "bench: warning: GOMAXPROCS < 2: the farm's clients and servers share one core; numbers are not comparable with the 2-core reference")
	}

	switch {
	case aa > 0:
		return runAA(opt, aa)
	case opt.workload != "":
		return runSingle(opt)
	default:
		return runSet(opt)
	}
}

// runWorkload dispatches one run.
func runWorkload(opt options) (*report, error) {
	if spec, ok := simSpecs[opt.workload]; ok {
		if opt.traced {
			return runSimTraced(opt, spec)
		}
		return runSim(opt, spec)
	}
	if spec, ok := farmSpecs[opt.workload]; ok {
		if opt.traced {
			return runFarmTraced(opt, spec)
		}
		return runFarm(opt, spec)
	}
	return nil, fmt.Errorf("unknown workload %q", opt.workload)
}

// checkSeedMatters verifies that a workload's stream depends on the seed:
// the next seed must generate another one.
func checkSeedMatters(stream func(n int, seed int64) ([]uint64, error), seed int64) error {
	a, err := stream(2000, seed)
	if err != nil {
		return err
	}
	b, err := stream(2000, seed+1)
	if err != nil {
		return err
	}
	if slices.Equal(a, b) {
		return fmt.Errorf("seeds %d and %d generate the same stream", seed, seed+1)
	}
	return nil
}

// zeroLayers gives the layers that do no work in this workload the value
// 0 on the driver's line; the printed table leaves them out.
func zeroLayers(r *report, workload string) {
	inactive := inactiveLayers(workload)
	for _, d := range perLayer {
		if hasAnyPrefix(d.Name, inactive) {
			r.Values[d.Name] = 0
		}
	}
}

// runSingle is one run as the driver starts it: a table for people, then
// the result as the last line of standard output.
func runSingle(opt options) int {
	r, err := runWorkload(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line := r.line(opt.traced)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush() //nolint:errcheck // nothing to do about a closed stdout
	fmt.Fprintln(out, header())
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g trace=%v clients=%d scale=%g\n",
		opt.workload, opt.seed, opt.seconds, opt.traced, opt.clients, opt.scale)
	defs := endToEnd
	if opt.traced {
		defs = perLayer
	}
	inactive := inactiveLayers(opt.workload)
	for _, d := range defs {
		if hasAnyPrefix(d.Name, inactive) {
			continue
		}
		fmt.Fprintf(out, "  %-38s %16.4f %s\n", d.Name, r.Values[d.Name], d.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(out, "  #", n)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(out, string(enc))
	if !line.Correct {
		out.Flush() //nolint:errcheck // as above
		return 1
	}
	return 0
}

// inactiveLayers names the layer prefixes that do no work in a workload.
func inactiveLayers(workload string) []string {
	if _, ok := simSpecs[workload]; ok {
		return []string{"httpproxy.", "nethttp.", "origin.", "budget."}
	}
	return []string{"sim.", "proxy."}
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// child runs one workload in a fresh process, so peak RSS and GC state
// are that workload's own. Its table goes to w (nil = discard); its
// result line is returned.
func child(opt options, w *os.File) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	trace := "0"
	if opt.traced {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", opt.workload, "-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", trace,
		"-scale", strconv.FormatFloat(opt.scale, 'g', -1, 64),
		"-clients", strconv.Itoa(opt.clients), "-out", opt.out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	if w != nil {
		fmt.Fprintln(w, strings.TrimSuffix(text, last))
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if runErr != nil {
			return resultLine{}, fmt.Errorf("%s: %w", opt.workload, runErr)
		}
		return resultLine{}, fmt.Errorf("%s: no result line: %w", opt.workload, err)
	}
	return line, nil
}

// runSet runs every workload untraced and then traced, and exits non-zero
// when any output check failed.
func runSet(opt options) int {
	failed := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := opt
			o.workload, o.traced = w.Name, traced
			line, err := child(o, os.Stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				failed++
				continue
			}
			if !line.Correct {
				failed++
			}
		}
	}
	if failed > 0 {
		fmt.Printf("FAIL: %d of %d runs failed their checks\n", failed, 2*len(workloads))
		return 1
	}
	fmt.Printf("ok: %d workloads, untraced and traced, every check passed\n", len(workloads))
	return 0
}

// runAA runs the same binary n times per workload and prints, for every
// end-to-end metric, the median, the quartiles and their distance as a
// share of the median next to the metric's bound — the driver's own
// acceptance rule. It exits non-zero when a spread leaves its bound.
func runAA(opt options, n int) int {
	fmt.Println(header())
	fmt.Printf("A/A: %d untraced runs per workload, seeds %d..%d, %g s each\n\n", n, opt.seed, opt.seed+int64(n)-1, opt.seconds)
	fmt.Println("| workload | metric | median | q1 | q3 | spread | bound | verdict |")
	fmt.Println("|---|---|---:|---:|---:|---:|---:|---|")
	bad := 0
	for _, w := range workloads {
		if opt.workload != "" && opt.workload != w.Name {
			continue
		}
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			o := opt
			o.workload, o.traced, o.seed = w.Name, false, opt.seed+int64(i)
			line, err := child(o, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !line.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d failed its checks\n", w.Name, o.seed)
				bad++
			}
			for name, m := range line.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[d.Name])
			spread := ratio(q3-q1, q2)
			verdict := "ok"
			switch {
			case d.Name == "setup_s":
				verdict = "not judged"
			case spread > d.Bound:
				verdict = "OUTSIDE"
				bad++
			case spread > d.Bound/3:
				verdict = "ok (above a third)"
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.3f | %s |\n", w.Name, d.Name, q2, q1, q3, spread, d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\nFAIL: %d metrics outside their bound or runs incorrect\n", bad)
		return 1
	}
	fmt.Println("\nok: every spread within its bound")
	return 0
}
