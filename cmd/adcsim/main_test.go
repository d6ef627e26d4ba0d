package main

import (
	"io"
	"os"
	"strings"
	"testing"
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

// TestDumpRefusesFlagsItCannotHonour: -dump runs the sequential engine over
// a generated workload, so a flag that asks for anything else is an error
// naming that flag, not a silently different run.
func TestDumpRefusesFlagsItCannotHonour(t *testing.T) {
	for _, flag := range []string{
		"-runtime=vtime", "-shards=2", "-replay=trace.bin", "-trace",
		"-metrics-every=1000", "-faults=loss=0.01", "-recovery=",
	} {
		name := strings.TrimPrefix(strings.SplitN(flag, "=", 2)[0], "-")
		_, err := runCaptured(t, append(append([]string{}, dumpArgs...), flag)...)
		if err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("-dump with %s: err = %v, want one naming -%s", flag, err, name)
		}
	}
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
