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
	"github.com/adc-sim/adc/internal/ids"
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
	// Runtime: "sequential" (default), "agents" or "vtime".
	Runtime string `json:"runtime,omitempty"`
	// Backend: "btree" (default), "slice" or "list".
	Backend string `json:"backend,omitempty"`

	// Workload describes the synthetic request stream; ignored when a
	// trace file drives the run.
	Workload WorkloadSection `json:"workload"`

	// Faults injects deterministic failures (requires the vtime runtime);
	// absent means the paper's lossless transport.
	Faults *FaultsSection `json:"faults,omitempty"`
	// Recovery enables the timeout/retransmission protocol (requires the
	// vtime runtime); absent means the paper-faithful protocol.
	Recovery *RecoverySection `json:"recovery,omitempty"`
}

// FaultsSection mirrors sim.FaultPlan in JSON form.
type FaultsSection struct {
	// Seed drives the fault stream (0 = the run seed).
	Seed int64 `json:"seed,omitempty"`
	// Loss is the i.i.d. message loss probability in [0, 1].
	Loss float64 `json:"loss,omitempty"`
	// Jitter adds uniform random delay in [0, jitter] ticks per transfer.
	Jitter int64 `json:"jitter,omitempty"`
	// Crashes schedules fail-stop proxy failures.
	Crashes []CrashSection `json:"crashes,omitempty"`
}

// CrashSection mirrors sim.Crash in JSON form.
type CrashSection struct {
	Proxy      int   `json:"proxy"`
	At         int64 `json:"at"`
	RestartAt  int64 `json:"restartAt,omitempty"`
	LoseTables bool  `json:"loseTables,omitempty"`
}

// RecoverySection mirrors sim.Recovery in JSON form; zero fields take the
// sim.DefaultRecovery values.
type RecoverySection struct {
	Timeout    int64   `json:"timeout,omitempty"`
	MaxRetries int     `json:"maxRetries,omitempty"`
	Backoff    float64 `json:"backoff,omitempty"`
	PendingTTL int64   `json:"pendingTTL,omitempty"`
}

// WorkloadSection mirrors workload.Config in JSON form.
type WorkloadSection struct {
	Requests     int     `json:"requests"`
	Population   int     `json:"population,omitempty"`
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

	var entry sim.EntryPolicy
	switch f.Entry {
	case "", "random":
		entry = sim.EntryRandom
	case "round-robin":
		entry = sim.EntryRoundRobin
	case "fixed":
		entry = sim.EntryFixed
	default:
		return cluster.Config{}, workload.Config{}, fmt.Errorf("config: unknown entry policy %q", f.Entry)
	}

	rt, ok := cluster.ParseRuntime(f.Runtime)
	if !ok {
		return cluster.Config{}, workload.Config{}, fmt.Errorf("config: unknown runtime %q (want sequential, agents or vtime)", f.Runtime)
	}

	backend, ok := core.ParseBackend(f.Backend)
	if !ok {
		return cluster.Config{}, workload.Config{}, fmt.Errorf("config: unknown backend %q (want btree, slice or list)", f.Backend)
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
	if f.Faults != nil {
		plan := &sim.FaultPlan{
			Seed:   f.Faults.Seed,
			Loss:   f.Faults.Loss,
			Jitter: f.Faults.Jitter,
		}
		if plan.Seed == 0 {
			plan.Seed = f.Seed
		}
		for _, cr := range f.Faults.Crashes {
			plan.Crashes = append(plan.Crashes, sim.Crash{
				Node:       ids.NodeID(cr.Proxy),
				At:         cr.At,
				RestartAt:  cr.RestartAt,
				LoseTables: cr.LoseTables,
			})
		}
		ccfg.Faults = plan
	}
	if f.Recovery != nil {
		ccfg.Recovery = sim.Recovery{
			Enabled:    true,
			Timeout:    f.Recovery.Timeout,
			MaxRetries: f.Recovery.MaxRetries,
			Backoff:    f.Recovery.Backoff,
			PendingTTL: f.Recovery.PendingTTL,
		}.Normalize()
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
