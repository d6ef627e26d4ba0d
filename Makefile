# Standard development targets. `make race` is part of the merge bar:
# the parallel experiment runner must stay race-clean.

GO ?= go

.PHONY: all build test race vet fmt-check faults fuzz bench-check benchmark benchmark-aa benchmark-exact bench-sweep bench-profile loadtest chaos trace-smoke telemetry-smoke figures clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails, listing the files, if any Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Short native-fuzz pass over the parsers that read bytes from outside — the
# farm's header codec (what a proxy reads off a socket) and the -faults /
# -recovery spec grammar (what a flag hands the engine) — and over the
# engine's event queue, whose pop order every golden constant rests on, and
# the mapping tables' open-addressed directory, which every proxy message
# probes. The committed seed corpora under testdata/fuzz also run as ordinary
# test cases in `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReplicaHeaders -fuzztime 10s ./internal/httpproxy/
	$(GO) test -run '^$$' -fuzz FuzzParseFaultSpec -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzParseRecoverySpec -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzEventQueueOrder -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzDirectory -fuzztime 10s ./internal/core/

# bench/ is a module of its own (BENCHMARK.json's driver), so `go build
# ./...` and `go test ./...` at the root never compile it. It imports
# internal/cluster, internal/sim and internal/httpproxy directly: run this
# after touching their exported surface.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The repository's benchmark (BENCHMARK.json, bench/README.md): the driver's
# own command and nothing else. `benchmark` runs every workload untraced then
# traced (~2 min on two cores) and prints the machine shape first; numbers
# from different shapes are not comparable. `benchmark-aa` runs the same code
# ten times per workload: the run-to-run spread to read any difference against.
benchmark:
	bash bench/run.sh -seed 1

benchmark-aa:
	bash bench/run.sh -aa 10

# Blocking gate on what repeats bit for bit per seed: both simulator
# workloads, untraced, seed 1, must report correct=true and exactly the
# hit_rate, hops, latency_us, latency_p99_us and ok_share committed in
# benchmark-exact.txt. Host-time metrics are not looked at. A change that
# moves a simulated result on purpose edits that file and says so.
benchmark-exact:
	@need() { printf '%s\n' "$$line" | grep -qF -e "$$1" \
	    || { echo "benchmark-exact: $$w: no $$1 in: $$line"; exit 1; }; }; \
	ran=; while read -r w want; do \
	  case "$$w" in ''|'#'*) continue;; esac; \
	  if [ "$$w" != "$$ran" ]; then \
	    ran="$$w"; \
	    line="$$(bash bench/run.sh -workload "$$w" -seed 1 -seconds 1 -trace 0 | tail -n 1)"; \
	    need '"correct":true'; \
	  fi; \
	  need "$$want"; \
	done < benchmark-exact.txt && echo "benchmark-exact: ok"

# Fault-injection gate: race-clean tests of the fault/recovery packages,
# then the resilience experiment at smoke scale (hit rate & completion vs
# message loss, with and without the recovery protocol).
faults:
	$(GO) test -race ./internal/sim ./internal/proxy ./internal/cluster
	$(GO) run ./cmd/adcsweep -metric resilience -scale 0.01 -losses 0,0.01,0.05

# Open-loop load test against an in-process farm: offered vs achieved rate,
# coordinated-omission-corrected latency quantiles, per-proxy hit/shed
# counts. Tune with RATE/DURATION/PROXIES, e.g.
#   make loadtest RATE=5000 DURATION=30s PROXIES=16
RATE     ?= 2000
DURATION ?= 10s
PROXIES  ?= 8
loadtest:
	$(GO) run ./cmd/adcload -rate $(RATE) -duration $(DURATION) -proxies $(PROXIES)

# Chaos run: kill one proxy mid-load and restart it, reporting windowed
# availability, time-to-detect and time-to-recover (DESIGN.md §16,
# EXPERIMENTS.md "Chaos runs"). Override the schedule with CHAOS=...
CHAOS ?= kill=p3@5s,restart=p3@15s
chaos:
	$(GO) run ./cmd/adcload -rate $(RATE) -duration 20s -proxies $(PROXIES) \
	  -chaos '$(CHAOS)' -quiet

# Sweep benchmarks compare the sequential and parallel runners; the rest
# regenerate every headline number in EXPERIMENTS.md.
bench-sweep:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# CPU + heap profiles of the engine benchmarks, for pprof inspection:
#   go tool pprof -top cpu.out
#   go tool pprof -top -sample_index=alloc_objects mem.out
bench-profile:
	$(GO) test -bench 'BenchmarkVEngineEcho|BenchmarkVEngineOpenLoop' -run '^$$' \
		-cpuprofile cpu.out -memprofile mem.out ./internal/sim/
	@echo "wrote cpu.out and mem.out"

# Observability smoke: a small traced run on the virtual-time engine, the
# JSONL validated against the event schema, then summarized. CI uploads
# trace-smoke.jsonl as a workflow artifact.
trace-smoke:
	$(GO) run ./cmd/adcsim -runtime vtime -requests 20000 -quiet \
		-trace -trace-out trace-smoke.jsonl
	$(GO) run ./cmd/adctrace validate trace-smoke.jsonl
	$(GO) run ./cmd/adctrace summary trace-smoke.jsonl

# Farm-telemetry smoke (DESIGN.md §17): a traced chaos run — every request
# spanned across proxies, every proxy's /metrics scraped and linted against
# the strict exposition parser — then adctrace farm reconstructs the
# cross-proxy trees from the scraped span dumps and gates on ≥99% of
# sampled requests forming complete (or explicitly truncated) trees.
telemetry-smoke:
	$(GO) run ./cmd/adcload -proxies 8 -rate 1500 -duration 8s -warm 2000 \
	  -chaos 'kill=p2@2s,restart=p2@5s' -probe-interval 50ms -quiet \
	  -trace-sample 1 -trace-dump telemetry-smoke.spans.json -lint-metrics
	$(GO) run ./cmd/adctrace farm -min-complete 0.99 telemetry-smoke.spans.json

figures:
	$(GO) run ./cmd/adcfigures

clean:
	$(GO) clean ./...
	rm -rf figures/*.csv cpu.out mem.out sim.test trace-smoke.jsonl telemetry-smoke.spans.json
