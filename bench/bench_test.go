package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestCurrent checks that BENCHMARK.json is what the metric tables
// generate, and that the tables respect the contract's limits.
func TestManifestCurrent(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		_, isSim := simSpecs[w.Name]
		_, isFarm := farmSpecs[w.Name]
		if isSim == isFarm {
			t.Errorf("workload %s must have exactly one spec", w.Name)
		}
	}
	setup := false
	for _, m := range slices.Concat(endToEnd, perLayer) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q outside the allowed alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
}

// TestWorkloadsSmoke runs every workload at 1/100 scale, untraced and
// traced, and checks what the driver checks on a full run: the result
// line carries exactly the expected metrics with their units, the output
// checks pass, and no end-to-end metric reads 0.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opt := options{
				workload: w.Name, seed: 7, seconds: 0.3, traced: traced,
				scale: 0.01, clients: 1, out: t.TempDir(),
			}
			r, err := runWorkload(opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			line := r.line(traced)
			if !line.Correct {
				t.Errorf("%s traced=%v: checks failed: %v", w.Name, traced, r.Notes)
			}
			if line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, line.Attempted, line.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics on the line, want %d", w.Name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or with unit %q, want %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				}
				// hit_rate alone may read 0 here: the open-loop stream at
				// 1/100 scale is injected before the first copy is cached.
				if !traced && (m.Value < 0 || m.Value == 0 && d.Name != "hit_rate") {
					t.Errorf("%s: end-to-end metric %s reads %v", w.Name, d.Name, m.Value)
				}
				if traced && hasAnyPrefix(d.Name, inactiveLayers(w.Name)) && m.Value != 0 {
					t.Errorf("%s: layer metric %s of an idle layer reads %v", w.Name, d.Name, m.Value)
				}
			}
			if _, err := json.Marshal(line); err != nil {
				t.Errorf("%s traced=%v: result line does not encode: %v", w.Name, traced, err)
			}
			if traced {
				data, err := os.ReadFile(opt.tracePath())
				if err != nil {
					t.Fatalf("%s: trace file: %v", w.Name, err)
				}
				var events []map[string]any
				if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
					t.Errorf("%s: trace file holds %d events, err %v", w.Name, len(events), err)
				}
			}
		}
	}
}

// TestSeedChangesStreams: another seed must give another input, the same
// seed the same one.
func TestSeedChangesStreams(t *testing.T) {
	streams := make(map[string]func(n int, seed int64) ([]uint64, error))
	for name, spec := range simSpecs {
		streams[name] = spec.materialize
	}
	for name, spec := range farmSpecs {
		streams[name] = spec.stream
	}
	for name, stream := range streams {
		var got [3][]uint64
		for i, seed := range []int64{1, 2, 1} {
			var err error
			if got[i], err = stream(500, seed); err != nil {
				t.Fatal(err)
			}
		}
		if slices.Equal(got[0], got[1]) || !slices.Equal(got[0], got[2]) {
			t.Errorf("%s: streams must differ between seeds and repeat for one seed", name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
