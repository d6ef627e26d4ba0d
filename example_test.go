package adc_test

import (
	"fmt"
	"log"

	"github.com/adc-sim/adc"
)

// The most basic use: simulate a five-proxy ADC system over a synthetic
// web workload and read off the headline metrics.
func ExampleRun() {
	workload, err := adc.NewWorkload(adc.WorkloadConfig{
		Requests:   50_000,
		Population: 500,
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}
	result, err := adc.Run(adc.Config{
		Algorithm:     adc.ADC,
		Proxies:       5,
		SingleTable:   1_000,
		MultipleTable: 1_000,
		CachingTable:  500,
		Seed:          42,
	}, workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d requests deterministically\n", result.Requests)
	// Output: completed 50000 requests deterministically
}

// Traces make experiments exactly repeatable: the same stream replayed
// through the same configuration gives identical results.
func ExampleSaveTraceFile() {
	workload, err := adc.NewWorkload(adc.WorkloadConfig{Requests: 10_000, Population: 100})
	if err != nil {
		log.Fatal(err)
	}
	path := "/tmp/adc-example-trace.bin"
	if err := adc.SaveTraceFile(path, workload); err != nil {
		log.Fatal(err)
	}
	replay, err := adc.LoadTraceFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace holds %d requests\n", replay.Total())
	// Output: trace holds 10000 requests
}
