// Distributed: the same ADC system, once on the deterministic in-process
// engine and once with every proxy, the client and the origin as their own
// goroutine, talking only through mailboxes — the paper's one-agent-per-
// proxy platform (§V.1). §V.1.2 observes that spreading the agents out
// produces the same results as the single-process run; the example verifies
// that equivalence live. The real-socket half of that claim is the HTTP
// farm (examples/httpfarm), held to the simulator's per-proxy statistics
// and table dumps by TestSimAndFarmRunTheSameProtocol in internal/httpproxy.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"github.com/adc-sim/adc"
)

func main() {
	mk := func() adc.Source {
		w, err := adc.NewWorkload(adc.WorkloadConfig{
			Requests:   50_000,
			Population: 500,
			Seed:       99,
		})
		if err != nil {
			log.Fatal(err)
		}
		return w
	}
	cfg := adc.Config{
		Algorithm:     adc.ADC,
		Proxies:       8, // the paper's hardware: 8 machines
		SingleTable:   1_000,
		MultipleTable: 1_000,
		CachingTable:  500,
		Seed:          99,
	}

	// Run 1: deterministic in-process engine.
	cfg.Runtime = adc.RuntimeSequential
	seq, err := adc.Run(cfg, mk())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential:  hit %.4f  hops %.3f  %8v\n",
		seq.HitRate, seq.Hops, seq.Elapsed.Round(1e6))

	// Run 2: one goroutine per agent with channel mailboxes.
	cfg.Runtime = adc.RuntimeAgents
	agents, err := adc.Run(cfg, mk())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("agents:      hit %.4f  hops %.3f  %8v\n",
		agents.HitRate, agents.Hops, agents.Elapsed.Round(1e6))

	if seq.Hits != agents.Hits {
		log.Fatalf("runtimes diverged: %d / %d hits", seq.Hits, agents.Hits)
	}
	fmt.Println("\nboth runtimes produced identical results, as §V.1.2 reports —")
	fmt.Println("closed-loop injection makes message order independent of the substrate.")
}
