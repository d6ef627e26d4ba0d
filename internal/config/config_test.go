package config

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/sim"
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
		"runtime": "vtime",
		"entry": "fixed",
		"backend": "list",
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
	if ccfg.Runtime != cluster.RuntimeVirtualTime {
		t.Errorf("runtime = %v", ccfg.Runtime)
	}
	if ccfg.Tables.Backend != core.BackendList {
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
	// The retired TCP and agents runtimes and the skip-list and
	// sorted-slice backends fail like any unknown name, and the error
	// lists what is accepted.
	for in, want := range map[string]string{
		`{"runtime": "tcp"}`:      `unknown runtime "tcp" (want sequential or vtime)`,
		`{"runtime": "agents"}`:   `unknown runtime "agents" (want sequential or vtime)`,
		`{"backend": "skiplist"}`: `unknown backend "skiplist" (want btree or list)`,
		`{"backend": "slice"}`:    `unknown backend "slice" (want btree or list)`,
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

// FuzzConfigParse: Parse never panics, and whatever it accepts survives a
// save and reload — json.Marshal, then Parse again — unchanged. The seed
// corpus under testdata/fuzz holds the default file, a virtual-time file
// with faults and recovery, malformed JSON, and a workload population of 0,
// which differs from the default 1000 and so must be written out on save.
func FuzzConfigParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("marshal accepted config: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse of %s: %v", out, err)
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("round trip changed the config:\nfirst  %+v\nsecond %+v\nvia %s", cfg, again, out)
		}
	})
}

// TestFaultsAndRecoverySpecs: the JSON faults and recovery fields are spec
// strings read by the same parsers as adcsim's -faults and -recovery,
// link clauses included.
func TestFaultsAndRecoverySpecs(t *testing.T) {
	f, err := Parse([]byte(`{
		"runtime": "vtime",
		"faults": "loss=0.01,link=p1>p2:0.5,kill=p0@2s,restart=p0@4s!",
		"recovery": "timeout=400ms,retries=3"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ccfg, _, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := &sim.FaultPlan{
		Loss:     0.01,
		LinkLoss: []sim.LinkLoss{{From: 1, To: 2, Rate: 0.5}},
		Crashes:  []sim.Crash{{Node: 0, At: 2_000_000, RestartAt: 4_000_000, LoseTables: true}},
	}
	if !reflect.DeepEqual(ccfg.Faults, want) {
		t.Errorf("faults = %+v, want %+v", ccfg.Faults, want)
	}
	if r := ccfg.Recovery; r != (sim.Recovery{Enabled: true, Timeout: 400_000, MaxRetries: 3}) {
		t.Errorf("recovery = %+v", r)
	}

	// An empty recovery string turns the protocol on with its defaults; an
	// absent one leaves it off.
	f, err = Parse([]byte(`{"runtime": "vtime", "recovery": ""}`))
	if err != nil {
		t.Fatal(err)
	}
	if ccfg, _, _ := f.Build(); !ccfg.Recovery.Enabled || ccfg.Faults != nil {
		t.Errorf(`"recovery": "" built faults %+v, recovery %+v`, ccfg.Faults, ccfg.Recovery)
	}
	if ccfg, _, _ := Default().Build(); ccfg.Recovery.Enabled || ccfg.Faults != nil {
		t.Errorf("default built faults %+v, recovery %+v", ccfg.Faults, ccfg.Recovery)
	}

	for in, want := range map[string]string{
		`{"runtime": "vtime", "faults": "crash=0@2000000"}`:   `unknown key "crash"`,
		`{"runtime": "vtime", "faults": "link=1>9:0.5"}`:      `outside proxy range`,
		`{"runtime": "vtime", "faults": "partition=1:2@1s"}`:  `farm`,
		`{"runtime": "vtime", "faults": "restart=1@5s"}`:      `no earlier kill`,
		`{"faults": "loss=0.1"}`:                              `virtual-time runtime`,
		`{"runtime": "vtime", "recovery": "retries=-1"}`:      `retries`,
		`{"runtime": "vtime", "recovery": "timeout=forever"}`: `bad time`,
		`{"runtime": "vtime", "faults": {"loss": 0.1}}`:       `parse`,
	} {
		if _, err := Parse([]byte(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%s) = %v, want an error containing %q", in, err, want)
		}
	}
}
