// Package config loads and saves simulation configurations as JSON, so an
// experiment can be described by a file checked into a repository instead
// of a flag soup — the reproducibility concern of §V.1.6 applied to
// parameters instead of request streams.
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/adc-sim/adc/internal/cluster"
	"github.com/adc-sim/adc/internal/core"
	"github.com/adc-sim/adc/internal/sim"
	"github.com/adc-sim/adc/internal/workload"
)

// File is the on-disk experiment description.
type File struct {
	// Algorithm: "adc", "carp" or "chash".
	Algorithm string `json:"algorithm"`
	// Proxies is the array size.
	Proxies int `json:"proxies"`
	// SingleTable, MultipleTable, CachingTable size the mapping tables.
	SingleTable   int `json:"singleTable"`
	MultipleTable int `json:"multipleTable"`
	CachingTable  int `json:"cachingTable"`
	// MaxHops bounds forwarding (0 = unbounded).
	MaxHops int `json:"maxHops,omitempty"`
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
	// Entry: "random", "round-robin" or "fixed".
	Entry string `json:"entry,omitempty"`
	// Runtime is the engine's latency preset: "sequential" (default,
	// zero-cost links) or "vtime" (the latency model).
	Runtime string `json:"runtime,omitempty"`
	// Backend: "btree" (default, the binary max-heap) or "list".
	Backend string `json:"backend,omitempty"`

	// Workload describes the synthetic request stream; ignored when a
	// trace file drives the run.
	Workload WorkloadSection `json:"workload"`

	// Faults injects deterministic failures (requires the vtime runtime),
	// written in adcsim's -faults grammar (sim.ParseFaultSpec), e.g.
	// "loss=0.01,link=1>2:0.05,kill=p0@2s,restart=p0@4s"; absent means the
	// paper's lossless transport.
	Faults string `json:"faults,omitempty"`
	// Recovery enables the timeout/retransmission protocol (requires the
	// vtime runtime), written in adcsim's -recovery grammar; "" selects the
	// defaults and absent means the paper-faithful protocol.
	Recovery *string `json:"recovery,omitempty"`
}

// WorkloadSection mirrors workload.Config in JSON form. Population has no
// omitempty: its default is 1000, so a 0 (size the population from the
// fill phase) must be written out to survive a save and reload.
type WorkloadSection struct {
	Requests     int     `json:"requests"`
	Population   int     `json:"population"`
	Alpha        float64 `json:"alpha,omitempty"`
	OneTimerProb float64 `json:"oneTimerProb,omitempty"`
	FillFraction float64 `json:"fillFraction,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
}

// Default returns the repository's reference configuration: the paper's
// setup at 1/10 scale.
func Default() File {
	return File{
		Algorithm:     "adc",
		Proxies:       5,
		SingleTable:   2_000,
		MultipleTable: 2_000,
		CachingTable:  1_000,
		Seed:          1,
		Workload: WorkloadSection{
			Requests:   399_000,
			Population: 1_000,
		},
	}
}

// Load reads and validates a JSON experiment file.
func Load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, fmt.Errorf("config: read: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates JSON bytes.
func Parse(data []byte) (File, error) {
	f := Default()
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("config: parse: %w", err)
	}
	if _, _, err := f.Build(); err != nil {
		return File{}, err
	}
	return f, nil
}

// Save writes the configuration as indented JSON.
func (f File) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("config: marshal: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("config: write: %w", err)
	}
	return nil
}

// Build converts the file into validated cluster and workload configs.
func (f File) Build() (cluster.Config, workload.Config, error) {
	algo, err := cluster.ParseAlgorithm(f.Algorithm)
	if err != nil {
		return cluster.Config{}, workload.Config{}, err
	}

	entry, err := sim.ParseEntryPolicy(f.Entry)
	if err != nil {
		return cluster.Config{}, workload.Config{}, err
	}
	rt, err := cluster.ParseRuntime(f.Runtime)
	if err != nil {
		return cluster.Config{}, workload.Config{}, err
	}
	backend, err := core.ParseBackend(f.Backend)
	if err != nil {
		return cluster.Config{}, workload.Config{}, err
	}

	ccfg := cluster.Config{
		Algorithm:  algo,
		NumProxies: f.Proxies,
		Tables: core.Config{
			SingleSize:   f.SingleTable,
			MultipleSize: f.MultipleTable,
			CachingSize:  f.CachingTable,
			Backend:      backend,
		},
		MaxHops:     f.MaxHops,
		Seed:        f.Seed,
		EntryPolicy: entry,
		Runtime:     rt,
	}
	if f.Faults != "" {
		if ccfg.Faults, err = sim.ParseFaultSpec(f.Faults); err != nil {
			return cluster.Config{}, workload.Config{}, err
		}
	}
	if f.Recovery != nil {
		if ccfg.Recovery, err = sim.ParseRecoverySpec(*f.Recovery); err != nil {
			return cluster.Config{}, workload.Config{}, err
		}
	}
	if err := ccfg.Validate(); err != nil {
		return cluster.Config{}, workload.Config{}, err
	}

	wcfg := workload.Config{
		TotalRequests:  f.Workload.Requests,
		PopulationSize: f.Workload.Population,
		Alpha:          f.Workload.Alpha,
		OneTimerProb:   f.Workload.OneTimerProb,
		FillFraction:   f.Workload.FillFraction,
		Seed:           f.Workload.Seed,
	}
	if wcfg.Seed == 0 {
		wcfg.Seed = f.Seed
	}
	if err := wcfg.Validate(); err != nil {
		return cluster.Config{}, workload.Config{}, err
	}
	return ccfg, wcfg, nil
}
