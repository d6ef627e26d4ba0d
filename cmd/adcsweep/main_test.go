package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// tiny runs a study at the smallest scale every study still accepts.
var tiny = []string{"-scale", "0.005", "-parallel", "2", "-quiet"}

// runCaptured calls run with tiny plus args and returns what it printed on
// stdout.
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
	err = run(append(slices.Clone(tiny), args...))
	os.Stdout = stdout
	w.Close() //nolint:errcheck // the reader sees EOF either way
	return <-out, err
}

// written lists the files a run left in dir.
func written(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestEveryMetricWritesItsCSVs: each -metric value runs, prints its
// report, and writes exactly its fixed CSV names under -out.
func TestEveryMetricWritesItsCSVs(t *testing.T) {
	want := map[string][]string{
		"compare":     {"figure11_hitrate.csv", "figure12_hops.csv"},
		"hits":        {"figure13_hits_by_size.csv"},
		"hops":        {"figure14_hops_by_size.csv"},
		"time":        {"figure15_time_by_size.csv"},
		"maxhops":     {"ext_maxhops.csv"},
		"ablations":   nil,
		"backends":    nil,
		"response":    nil,
		"prelearned":  nil,
		"proxycount":  nil,
		"baselines":   nil,
		"resilience":  {"resilience.csv"},
		"convergence": {"convergence.csv"},
		"loadspread":  {"loadspread.csv"},
	}
	if len(studies) != len(want) {
		t.Errorf("%d studies, want %d", len(studies), len(want))
	}
	for _, s := range studies {
		names, ok := want[s.name]
		if !ok {
			t.Errorf("study %q has no expected CSV names", s.name)
			continue
		}
		dir := t.TempDir()
		args := []string{"-metric", s.name}
		if names != nil {
			args = append(args, "-out", dir)
		}
		if s.name == "resilience" {
			args = append(args, "-losses", "0,0.01")
		}
		out, err := runCaptured(t, args...)
		if err != nil {
			t.Errorf("-metric %s: %v", s.name, err)
			continue
		}
		if !strings.Contains(out, "=== "+s.title+" ===") {
			t.Errorf("-metric %s printed no %q header:\n%s", s.name, s.title, out)
		}
		if s.name == "resilience" && !strings.Contains(out, "crash/restart") {
			t.Errorf("-metric resilience printed no crash/restart study:\n%s", out)
		}
		if got := written(t, dir); !slices.Equal(got, names) {
			t.Errorf("-metric %s wrote %v, want %v", s.name, got, names)
		}
	}
}

// TestFiguresWritesTheCommittedNames: -metric figures writes every file of
// the committed figures/ directory, with the committed header.
func TestFiguresWritesTheCommittedNames(t *testing.T) {
	committed, err := filepath.Glob(filepath.Join("..", "..", "figures", "*.csv"))
	if err != nil || len(committed) != 6 {
		t.Fatalf("committed figures: %v, %v", committed, err)
	}
	dir := t.TempDir()
	if _, err := runCaptured(t, "-metric", "figures", "-out", dir); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range committed {
		name := filepath.Base(path)
		names = append(names, name)
		header := func(path string) string {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return strings.SplitN(string(b), "\n", 2)[0]
		}
		if got, want := header(filepath.Join(dir, name)), header(path); got != want {
			t.Errorf("%s header %q, want %q", name, got, want)
		}
	}
	if got := written(t, dir); !slices.Equal(got, names) {
		t.Errorf("-metric figures wrote %v, want %v", got, names)
	}
}

// TestRefusesFlagsTheStudyDoesNotRead: a flag the selected study would
// ignore fails, naming the flag, before anything runs; for -metric figures
// that is any flag one of its studies ignores. An unknown -backend or
// -metric fails before anything runs too.
func TestRefusesFlagsTheStudyDoesNotRead(t *testing.T) {
	for _, args := range [][]string{
		{"-metric", "hits", "-losses", "0.5"},
		{"-metric", "hops", "-recovery", "timeout=1"},
		{"-metric", "time", "-backend", "list"},
		{"-metric", "backends", "-backend", "list"},
		{"-metric", "ablations", "-out", t.TempDir()},
		{"-metric", "figures", "-backend", "list"},
		{"-metric", "figures", "-losses", "0.5"},
	} {
		flag := args[len(args)-2]
		if _, err := runCaptured(t, args...); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("adcsweep %v: err = %v, want one naming %s", args, err, flag)
		}
	}
	out, err := runCaptured(t, "-metric", "prelearned", "-backend", "rope")
	if err == nil || !strings.Contains(err.Error(), `unknown backend "rope" (want btree or list)`) || out != "" {
		t.Errorf("-backend rope: err = %v after printing %q, want an unknown-backend error before any study", err, out)
	}
	_, err = runCaptured(t, "-metric", "fig16")
	if err == nil || !strings.Contains(err.Error(), `unknown metric "fig16"`) ||
		!strings.Contains(err.Error(), "loadspread") || !strings.Contains(err.Error(), "figures") {
		t.Errorf("-metric fig16: err = %v, want one listing the metrics", err)
	}
}
