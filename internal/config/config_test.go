package config

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
)

func TestDefaultBuilds(t *testing.T) {
	ccfg, wcfg, err := Default().Build()
	if err != nil {
		t.Fatal(err)
	}
	if ccfg.Algorithm != cluster.ADC || ccfg.NumProxies != 5 {
		t.Errorf("cluster config = %+v", ccfg)
	}
	if wcfg.TotalRequests != 399_000 {
		t.Errorf("workload requests = %d", wcfg.TotalRequests)
	}
}

func TestParseOverrides(t *testing.T) {
	f, err := Parse([]byte(`{
		"algorithm": "carp",
		"proxies": 8,
		"cachingTable": 500,
		"runtime": "agents",
		"entry": "fixed",
		"backend": "slice",
		"workload": {"requests": 1000, "population": 50}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ccfg, wcfg, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ccfg.Algorithm != cluster.CARP || ccfg.NumProxies != 8 {
		t.Errorf("overrides lost: %+v", ccfg)
	}
	if ccfg.Runtime != cluster.RuntimeAgents {
		t.Errorf("runtime = %v", ccfg.Runtime)
	}
	if ccfg.Tables.Backend != core.BackendSlice {
		t.Errorf("backend = %v", ccfg.Tables.Backend)
	}
	if wcfg.TotalRequests != 1000 || wcfg.PopulationSize != 50 {
		t.Errorf("workload = %+v", wcfg)
	}
}

func TestParseRejectsBadValues(t *testing.T) {
	cases := []string{
		`{`,
		`{"algorithm": "quantum"}`,
		`{"entry": "sideways"}`,
		`{"runtime": "blockchain"}`,
		`{"backend": "rope"}`,
		`{"proxies": -1}`,
		`{"workload": {"requests": -5}}`,
	}
	for _, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("Parse(%s) must fail", in)
		}
	}
	// The retired TCP runtime and skip-list backend fail like any unknown
	// name, and the error lists what is accepted.
	for in, want := range map[string]string{
		`{"runtime": "tcp"}`:      `unknown runtime "tcp" (want sequential, agents or vtime)`,
		`{"backend": "skiplist"}`: `unknown backend "skiplist" (want btree, slice or list)`,
	} {
		if _, err := Parse([]byte(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%s) = %v, want an error containing %q", in, err, want)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	f := Default()
	f.Algorithm = "chash"
	f.Seed = 99
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Algorithm != "chash" || loaded.Seed != 99 {
		t.Errorf("round trip lost fields: %+v", loaded)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/exp.json"); err == nil ||
		!strings.Contains(err.Error(), "read") {
		t.Errorf("err = %v", err)
	}
}

func TestWorkloadSeedDefaultsToRunSeed(t *testing.T) {
	f := Default()
	f.Seed = 42
	f.Workload.Seed = 0
	_, wcfg, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if wcfg.Seed != 42 {
		t.Errorf("workload seed = %d, want inherited 42", wcfg.Seed)
	}
}
