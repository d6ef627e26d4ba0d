package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/config"
	"github.com/adc-sim/adc/internal/trace"
)

// runCaptured calls run with args and returns what it printed on stdout.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = run(args)
	os.Stdout = stdout
	w.Close() //nolint:errcheck // the reader sees EOF either way
	return <-out, err
}

var dumpArgs = []string{"-dump", "1", "-requests", "3000", "-population", "100", "-proxies", "3"}

// checkRefuses runs base plus each of flags in turn and wants an error
// naming that flag, not a silently different run.
func checkRefuses(t *testing.T, base []string, flags ...string) {
	t.Helper()
	for _, flag := range flags {
		name := strings.TrimPrefix(strings.SplitN(flag, "=", 2)[0], "-")
		_, err := runCaptured(t, append(append([]string{}, base...), flag)...)
		if err == nil || !strings.HasPrefix(err.Error(), "-"+name+" ") {
			t.Errorf("%v with %s: err = %v, want one naming -%s", base, flag, err, name)
		}
	}
}

// TestDumpRefusesFlagsItCannotHonour: -dump runs the sequential engine over
// a generated workload, so a flag that asks for anything else is refused.
func TestDumpRefusesFlagsItCannotHonour(t *testing.T) {
	checkRefuses(t, dumpArgs,
		"-runtime=vtime", "-shards=2", "-replay=trace.bin", "-trace",
		"-metrics-every=1000", "-faults=loss=0.01", "-recovery=", "-config=exp.json")
}

// TestDumpAppliesEntry: -entry reaches the -dump run. Pinning every request
// to proxy 0 changes what proxy 1 learns, and an unknown policy fails.
func TestDumpAppliesEntry(t *testing.T) {
	random, err := runCaptured(t, append(append([]string{}, dumpArgs...), "-entry", "random")...)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := runCaptured(t, append(append([]string{}, dumpArgs...), "-entry", "fixed")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(random, "Caching Table") || random == fixed {
		t.Errorf("-entry fixed left the dump unchanged:\n%s", fixed)
	}
	_, err = runCaptured(t, append(append([]string{}, dumpArgs...), "-entry", "sideways")...)
	if err == nil || !strings.Contains(err.Error(), `unknown entry policy "sideways"`) {
		t.Errorf("-dump -entry sideways: err = %v", err)
	}
}

// reportValues maps each summary line's label to its first value.
func reportValues(out string) map[string]string {
	values := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if label, rest, ok := strings.Cut(line, "  "); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				values[label] = f[0]
			}
		}
	}
	return values
}

// TestFlaglessRunIsTheDefaultExperiment: the flag defaults are
// config.Default(), so a flagless run and -config of the file -write-config
// writes report the same run.
func TestFlaglessRunIsTheDefaultExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "default.json")
	if _, err := runCaptured(t, "-write-config", path); err != nil {
		t.Fatal(err)
	}
	flagless, err := runCaptured(t)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := runCaptured(t, "-config", path)
	if err != nil {
		t.Fatal(err)
	}
	a, b := reportValues(flagless), reportValues(fromFile)
	if a["requests"] != strconv.Itoa(config.Default().Workload.Requests) {
		t.Errorf("flagless run made %s requests, want config.Default()'s %d", a["requests"], config.Default().Workload.Requests)
	}
	for _, label := range []string{"requests", "hit rate", "hops/request"} {
		if a[label] == "" || a[label] != b[label] {
			t.Errorf("%s: flagless %q, -config %q", label, a[label], b[label])
		}
	}
}

// faultyExperiment is a small lossy experiment file with recovery on.
func faultyExperiment(t *testing.T) string {
	f := config.Default()
	f.Runtime = "vtime"
	f.Workload.Requests = 3000
	f.Faults = "loss=0.01"
	f.Recovery = new(string)
	path := filepath.Join(t.TempDir(), "faulty.json")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestConfigRefusesFlagsTheFileDescribes: with -config the file describes
// the experiment, so a flag that would describe it too is refused.
func TestConfigRefusesFlagsTheFileDescribes(t *testing.T) {
	checkRefuses(t, []string{"-config", faultyExperiment(t)},
		"-proxies=9", "-algo=carp", "-faults=loss=0.5", "-recovery=", "-requests=10",
		"-runtime=sequential", "-seed=2", "-single=10", "-entry=fixed", "-backend=slice")
}

// TestConfigRunTakesRunFlagsAndReportsFaults: the run flags apply to a
// -config run as to a flag run, and a file with faults and recovery prints
// the completion, fault and recovery lines a flag run prints.
func TestConfigRunTakesRunFlagsAndReportsFaults(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.jsonl")
	out, err := runCaptured(t, "-config", faultyExperiment(t), "-trace", "-trace-out", tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"completion ", "faults ", "dropped=", "leaked-pending="} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	if st, err := os.Stat(tracePath); err != nil || st.Size() == 0 {
		t.Errorf("-trace with -config wrote no trace: %v", err)
	}
}

// TestWriteTraceReplaysAsTheGeneratedRun: -write-trace writes the stream the
// same flags simulate, so -replay of the file is the generated run.
func TestWriteTraceReplaysAsTheGeneratedRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.bin")
	workload := []string{"-requests", "3000", "-population", "100", "-alpha", "0.9", "-onetimers", "0.1", "-seed", "2"}
	if _, err := runCaptured(t, append([]string{"-write-trace", path}, workload...)...); err != nil {
		t.Fatal(err)
	}
	generated, err := runCaptured(t, workload...)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := runCaptured(t, "-replay", path, "-seed", "2")
	if err != nil {
		t.Fatal(err)
	}
	a, b := reportValues(generated), reportValues(replayed)
	for _, label := range []string{"requests", "hit rate", "hops/request"} {
		if a[label] == "" || a[label] != b[label] {
			t.Errorf("%s: generated %q, replayed %q", label, a[label], b[label])
		}
	}
}

// TestFromSquidWritesTheParsedLog: -from-squid with -write-trace writes the
// bytes trace.Write makes of trace.ParseSquidLog's stream.
func TestFromSquidWritesTheParsedLog(t *testing.T) {
	const log = `1066036250.464 17 10.0.0.1 TCP_MISS/200 512 GET http://example.com/a - DIRECT/1.2.3.4 text/html
1066036250.470 3 10.0.0.2 TCP_HIT/200 512 GET http://example.com/b - NONE/- text/html
not a squid line
1066036251.001 5 10.0.0.1 TCP_MEM_HIT/200 512 GET http://example.com/a - NONE/- text/html
`
	dir := t.TempDir()
	logPath, out := filepath.Join(dir, "access.log"), filepath.Join(dir, "real.bin")
	if err := os.WriteFile(logPath, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCaptured(t, "-from-squid", logPath, "-write-trace", out); err != nil {
		t.Fatal(err)
	}
	src, _, err := trace.ParseSquidLog(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trace.Write(&want, src); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("-from-squid wrote %x (err %v), want %x", got, err, want.Bytes())
	}
}

// TestTraceModesRefuseFlagsTheyDoNotRead: -write-trace reads only the
// workload's flags (none of them for a Squid log), and a recorded source
// replaces the generated workload, so any other flag is refused by name.
func TestTraceModesRefuseFlagsTheyDoNotRead(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.bin")
	checkRefuses(t, []string{"-write-trace", out},
		"-proxies=3", "-algo=carp", "-runtime=vtime", "-trace", "-dump=0", "-replay=t.bin", "-v", "-quiet", "-faults=loss=0.1")
	checkRefuses(t, []string{"-write-trace", out, "-from-squid", "access.log"},
		"-seed=2", "-config=exp.json", "-requests=10", "-alpha=0.9")
	checkRefuses(t, []string{"-replay", "t.bin"},
		"-requests=10", "-population=5", "-alpha=0.9", "-onetimers=0.1", "-from-squid=access.log")
	checkRefuses(t, []string{"-from-squid", "access.log"}, "-requests=10", "-onetimers=0.1")
}
