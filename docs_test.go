package adc_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A make invocation as the docs write one: after a backtick, or opening
	// a line of a code block or a workflow `run:` step. Prose ("and make
	// every probe …") is not matched.
	makeInvocation = regexp.MustCompile("(?m)(?:`|^\\s*(?:run: |\\$ )?)make ([a-z][a-z0-9-]*)")
	// The deleted 1-core recordings and their recorder, the farm's own
	// fault-schedule spellings, since folded into the -faults grammar, the
	// open-loop client type, since folded into sim.Client (the word
	// boundary keeps test names such as TestOpenLoopClientValidation legal),
	// the farm's circuit breaker and the knobs that went with it, since
	// folded into the health monitor, the farm's event tracer, since
	// folded into its span ring, the goroutine-agents runtime with its
	// example and the allocating message helpers only it needed, the
	// figure command and table-sweep example, since folded into adcsweep,
	// the trace generator and farm daemon, since folded into adcsim
	// -write-trace and adcload -serve, the breaker's names for a fetch
	// refused to a peer held down, since called a peer-down refusal, the
	// text trace format, the virtual-time engine's shard workers with
	// their merge threshold, serial switch and command-line flag, the
	// sorted-slice table backend with its -backend value, and the event
	// queue's partition: its map, constructor, index and config field (the
	// word boundaries keep names that merely contain them legal), and the
	// functions only tests
	// called: the trace-cache purge, the Zipf head mass, the trace
	// constructor, the standard deviations and the proxy's handler and
	// kill-state accessors; the block B-tree backend's types; and the JSON
	// Lines event trace: its reader, writer, wire type and kind parser, the
	// facade's Chrome writer, adcsim's -trace-out, adctrace's subcommands
	// and the tracer's reset.
	retiredName = regexp.MustCompile(`benchjson|BENCH_[A-Za-z_*]|ParseChaosSpec|ChaosPlan|CrashProxyAt|(?:^|[^\w-])-chaos(?:[^\w-]|$)|\b(?:New)?OpenLoop(?:Client|Config)\b|breakerGroup|Breaker(?:Var|Threshold|Cooldown)|RecoveryThreshold|RetryBackoff|adc_breaker_state|\b(?:BuildTrees|TreeFor|FormatTree|WriteChrome)\b|\bHashRequestID\b|\bUseWallClock\b|HTTPFarm\)?\.SetTracer|RuntimeAgents|runConcurrent|examples/distributed|\bRecycler\b|\bReplyTo\(|\bSetOnDone\b|adcfigures|examples/tablesweep|\badc(?:gen|farm)\b|BreakerDenied|breaker_denied|adc_breaker_denied_total|WriteText|ReadText|[pP]arallelMergeMin|\bSerialize\(\)|(?:^|[^\w-])-shards(?:[^\w-]|$)|\bBackendSlice\b|\bsliceTable\b|-backend slice|\b(?:New)?ShardMap\b|\bNewShardedVEngine\b|\bshardIdx\b|Config\.Shards\b|PurgeTraceCache|\bHeadMass\b|\bNewTrace\b|\bStdDev\b|\bProxy\.(?:Handler|Killed)\(\)|\bsim\.NewEngine\b|\bmessageQueue\b|\bsim\.(?:Clock|Scheduler)\b|\bTraceNow\b|\bbtree(?:Table|Cell|MaxBlock)\b|\b(?:WriteJSONL|ReadJSONL|ParseKind|WriteChromeTrace|wireEvent)\b|-trace-out\b|adctrace (?:summary|request|converge|validate|chrome|farm)\b|\bTracer\.Reset\b|\bFarmConfig\b|HTTPFarmConfig\.(?:MaxHops|MaxActive|MaxQueue|NoCoalesce|Health|ProbeInterval|FailureThreshold|MaxRetries|HedgeDelay|TraceSample|TraceRing)\b|\b(?:Farm\.TraceDumps|Proxy\.HealthState|PopulationFraction|FillRepeatProb)\b|\b(?:lruOrdered|newLRUOrdered)\b|\badc\.(?:Profile|Progress|Compare|Sweep|TimingSweep|MaxHopsSweep|SelectiveCachingAblation|AgingAblation|PreLearned|ProxyCountSweep|Baselines|ResponseTime|LossSweep|CrashRecovery|BackendComparison|ConvergenceSweep|ReplicationSweep|MaxHopsPoint|Ablation|PreLearnedResult|ProxyCountPoint|ResponseResult|LossPoint|CrashRecoveryResult|ConvergencePoint|ReplicationOptions|Comparison|SweepPoint|BaselinePoint|BackendPoint|ReplicationPoint)\b|\b(?:workload|Trace)\.Cursor\b|\bMovingAverage\.Reset\b|\bRing\.Len\b|\bCache\.Peek\b|\bExampleCompare\b`)
	// EXPERIMENTS.md sections that record one PR's runs say so in their
	// heading; they are history and may name what existed then.
	datedHeading = regexp.MustCompile(`\((?:PR|issue) \d+`)
	// A back-ticked reference into internal/, and its grammar: a package
	// directory, then either a file in it or a name it declares.
	internalRef  = regexp.MustCompile("`(internal/[^`]*)`")
	internalPath = regexp.MustCompile(`^(internal(?:/[a-z0-9_]+)+)(/[A-Za-z0-9_]+\.go|\.[A-Z][A-Za-z0-9_]*)?$`)
	// A back-ticked span on one line, the test, benchmark and fuzz names in
	// it, and their declarations in _test.go files.
	codeSpan     = regexp.MustCompile("`[^`\n]+`")
	testName     = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
	// A benchmark workload name and a per-layer metric name, matched against
	// whole words of a back-ticked span. A metric's name after the layer
	// always has an underscore, which keeps file names such as trace.jsonl
	// out.
	workloadName = regexp.MustCompile(`^(?:sim|farm)_[a-z0-9_]+$`)
	metricName   = regexp.MustCompile(`^[a-z]+\.[a-z0-9]+_[a-z0-9_]+$`)
	// A command line in a back-ticked span: a binary's name, bare or as
	// cmd/<name>, at the start; its -flags after a space or a slash
	// (`adcload -max-active/-max-queue`) once quoted arguments are cut out;
	// and a flag declared with a literal name in the binary's source.
	commandLine = regexp.MustCompile("^`(?:cmd/)?([a-z]+)(?:\\s[^`]*)?`$")
	quotedArg   = regexp.MustCompile(`'[^']*'|"[^"]*"`)
	flagToken   = regexp.MustCompile(`(?:^|[\s/])--?([A-Za-z][A-Za-z0-9-]*)`)
	flagDecl    = regexp.MustCompile(`\b(?:fs|flag)\.(?:(?:Int|Int64|Uint|Uint64|Float64|String|Bool|Duration)(?:Var)?|Var)\((?:[^,()"]+,\s*)?"([A-Za-z0-9][\w-]*)"`)
)

// livingText returns the part of a file that describes the repository as it
// is: everything, except EXPERIMENTS.md's dated "## … (PR n …)" sections.
func livingText(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "EXPERIMENTS.md" {
		return string(raw)
	}
	var b strings.Builder
	dated := false
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "## ") {
			dated = datedHeading.MatchString(line)
		}
		if !dated {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestDocsNameRealThings is the first slice of ROADMAP item 9's doc test:
// the documents that tell a reader what to run must name things that exist.
func TestDocsNameRealThings(t *testing.T) {
	t.Run("make targets", docsNameDeclaredMakeTargets)
	t.Run("retired recordings", docsDoNotNameRetiredRecordings)
	t.Run("internal packages", docsNameRealPackages)
	t.Run("test names", docsNameDeclaredTests)
	t.Run("benchmark names", docsNameDeclaredBenchmarkNames)
	t.Run("cli flags", docsNameDeclaredFlags)
}

// docsNameDeclaredFlags resolves every -flag of every back-ticked command
// line (`adcsim -runtime vtime …`, `cmd/adcload -rate …`) in the documents
// that say what to run: cmd/<name>/*.go must declare it.
func docsNameDeclaredFlags(t *testing.T) {
	for span, want := range map[string][]string{
		"`adcsim -runtime vtime -recovery '' -faults 'kill=p1@2s'`": {"runtime", "recovery", "faults"},
		"`adcload -max-active/-max-queue`":                          {"max-active", "max-queue"},
	} {
		var got []string
		for _, m := range flagToken.FindAllStringSubmatch(quotedArg.ReplaceAllString(span, ""), -1) {
			got = append(got, m[1])
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: flags %v, want %v", span, got, want)
		}
	}
	declared := map[string]map[string]bool{}
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		files, err := filepath.Glob(filepath.Join("cmd", e.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		flags := map[string]bool{}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDecl.FindAllStringSubmatch(string(src), -1) {
				flags[m[1]] = true
			}
		}
		declared[e.Name()] = flags
	}
	found := 0
	for _, path := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		for _, span := range codeSpan.FindAllString(livingText(t, path), -1) {
			m := commandLine.FindStringSubmatch(span)
			if m == nil || declared[m[1]] == nil {
				continue
			}
			found++
			for _, f := range flagToken.FindAllStringSubmatch(quotedArg.ReplaceAllString(span, ""), -1) {
				if !declared[m[1]][f[1]] {
					t.Errorf("%s names -%s in %s, which cmd/%s does not declare", path, f[1], span, m[1])
				}
			}
		}
	}
	if found == 0 {
		t.Error("no command line found; the extraction pattern no longer fits the documents")
	}
}

// docsNameDeclaredBenchmarkNames resolves every back-ticked workload name
// (`sim_…`, `farm_…`) and per-layer metric name (`<layer>.<name>`) in the
// documents that say what to run: BENCHMARK.json must declare it.
func docsNameDeclaredBenchmarkNames(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, w := range bench.Workloads {
		declared[w.Name] = true
	}
	for _, m := range bench.PerLayer {
		declared[m.Name] = true
	}
	for word, want := range map[string]bool{
		"sim_shift_open": true, "sim.self_ns_per_event": true,
		"trace.jsonl": false, "farm_test.go": false, "metrics.ProxyStats": false,
	} {
		if got := workloadName.MatchString(word) || metricName.MatchString(word); got != want {
			t.Errorf("%s: matched %v, want %v", word, got, want)
		}
	}
	isWordRune := func(r rune) bool {
		return r == '_' || r == '.' || r == '-' || r == '/' || '0' <= r && r <= '9' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z'
	}
	found := 0
	for _, path := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		for _, span := range codeSpan.FindAllString(livingText(t, path), -1) {
			for _, word := range strings.FieldsFunc(span, func(r rune) bool { return !isWordRune(r) }) {
				if !workloadName.MatchString(word) && !metricName.MatchString(word) {
					continue
				}
				found++
				if !declared[word] {
					t.Errorf("%s names %s in %s, which BENCHMARK.json does not declare", path, word, span)
				}
			}
		}
	}
	if found == 0 {
		t.Error("no workload or metric name found; the extraction pattern no longer fits the documents")
	}
}

// docsNameDeclaredTests resolves every back-ticked Test…, Benchmark… and
// Fuzz… name in the documents that say what to run: some _test.go file must
// declare it, or, where the name is a `go test -run` pattern, a function it
// is a prefix of.
func docsNameDeclaredTests(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFuncDecl.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	resolves := func(name string) bool {
		if declared[name] {
			return true
		}
		for d := range declared {
			if strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}
	for _, path := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		found := 0
		for _, span := range codeSpan.FindAllString(livingText(t, path), -1) {
			for _, name := range testName.FindAllString(span, -1) {
				found++
				if !resolves(name) {
					t.Errorf("%s names %s in %s, which no _test.go file declares", path, name, span)
				}
			}
		}
		if found == 0 {
			t.Errorf("%s: no test name found; the extraction pattern no longer fits the file", path)
		}
	}
}

// docsNameRealPackages resolves every back-ticked `internal/<pkg>`,
// `internal/<pkg>/<file>.go` and `internal/<pkg>.<Ident>` in the documents
// that describe the code: the directory or file must exist, and an
// identifier must be declared at the top level of the package's non-test
// files.
func docsNameRealPackages(t *testing.T) {
	for _, path := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		found := 0
		for _, m := range internalRef.FindAllStringSubmatch(livingText(t, path), -1) {
			found++
			ref := internalPath.FindStringSubmatch(m[1])
			if ref == nil {
				t.Errorf("%s names `%s`, which is not internal/<pkg>, internal/<pkg>/<file>.go or internal/<pkg>.<Ident>", path, m[1])
				continue
			}
			dir, suffix := ref[1], ref[2]
			target := dir
			if strings.HasPrefix(suffix, "/") {
				target += suffix
			}
			if _, err := os.Stat(target); err != nil {
				t.Errorf("%s names `%s`, which does not exist", path, m[1])
				continue
			}
			if ident, ok := strings.CutPrefix(suffix, "."); ok && !declaredNames(t, dir)[ident] {
				t.Errorf("%s names `%s`, but %s declares no %s", path, m[1], dir, ident)
			}
		}
		if found == 0 {
			t.Errorf("%s: no internal/ reference found; the extraction pattern no longer fits the file", path)
		}
	}
}

// declaredNames returns the top-level names (types, functions, variables,
// constants; not methods) declared in dir's non-test Go files.
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

func docsNameDeclaredMakeTargets(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, line := range strings.Split(string(makefile), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, target := range strings.Fields(rest) {
				declared[target] = true
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("Makefile declares no .PHONY targets")
	}
	for _, path := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md",
		".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml",
	} {
		found := 0
		for _, m := range makeInvocation.FindAllStringSubmatch(livingText(t, path), -1) {
			found++
			if !declared[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile's .PHONY list does not declare", path, m[1])
			}
		}
		if found == 0 {
			t.Errorf("%s: no make invocation found; the extraction pattern no longer fits the file", path)
		}
	}
}

// docsDoNotNameRetiredRecordings walks every text file of the checkout for
// retiredName: the retired recordings, fault-schedule spellings, client
// type, circuit-breaker names, event-trace tree API, farm event tracer,
// goroutine-agents runtime, figure command, trace generator, farm daemon,
// text trace format, shard workers, sorted-slice backend, queue partition,
// test-only functions, the FIFO engine with its clock and scheduler
// interfaces, the block B-tree backend, the JSON Lines event trace, the
// farm configurations that copied httpproxy.Config, the test-only farm
// accessors, the workload knobs that became constants and the admit-all
// cache's own list type, which the single-table replaced, the facade's
// experiment layer (adc.Profile, its study functions and result types),
// the trace cursor and the accessors only tests read. Exempt:
// CHANGES.md, ROADMAP.md and the task plan (the record
// and the plan of what was removed), EXPERIMENTS.md's dated sections,
// bench/ (frozen by BENCHMARK.json's `paths`; its README already calls the
// files superseded), this file, and the build outputs of the benchmark and
// of make cover-integration (tens of MB of span dumps, not documents).
func docsDoNotNameRetiredRecordings(t *testing.T) {
	exemptFile := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "ISSUE.md": true, "docs_test.go": true}
	skipDir := map[string]bool{".git": true, ".bench_build": true, "bench": true, ".cover-integration": true}
	textExt := map[string]bool{".md": true, ".go": true, ".yml": true, ".sh": true, ".txt": true, ".json": true}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir[path] {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if exemptFile[path] || !(textExt[filepath.Ext(name)] || name == "Makefile" || name == ".gitignore") {
			return nil
		}
		for _, line := range strings.Split(livingText(t, path), "\n") {
			if retiredName.MatchString(line) {
				t.Errorf("%s names something retired (see retiredName): %s", path, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
