# Standard development targets. `make race` is part of the merge bar:
# the parallel experiment runner must stay race-clean.

GO ?= go

# Engine hot-path benchmarks tracked in BENCH_engine.json (see DESIGN.md
# "The virtual-time engine" and EXPERIMENTS.md "Profiling the engine").
ENGINE_BENCH = BenchmarkVEngine|BenchmarkEngineADC|BenchmarkClusterRun

# Mapping-table benchmarks tracked in BENCH_tables.json (DESIGN.md "Table
# internals"): Update/Lookup mixes at the paper's reference sizes, the
# directory alone beside a builtin map (the floor core.lookup_ns_per_op is
# read against), plus the end-to-end engine benchmark the table overhaul moves. BenchmarkVEngineADC
# rides along as the disabled-tracer overhead guard (DESIGN.md §12): CI
# re-runs it and asserts ≤3% drift against the recorded number.
TABLES_BENCH = BenchmarkTablesUpdate|BenchmarkTablesLookup|BenchmarkDirectory|BenchmarkVEngineADC$$

# HTTP-farm real-network benchmarks tracked in BENCH_farm.json (DESIGN.md
# "Real-network path"): end-to-end farm throughput serial and fanned-in,
# plus the miss-storm pair whose origin-fetches/op gap measures miss
# coalescing. Interpret req/s against num_cpu/gomaxprocs in the file.
FARM_BENCH = BenchmarkFarmGet|BenchmarkFarmMissStorm

# Hot-object replication benchmark tracked in BENCH_replication.json
# (DESIGN.md "Hot-object replication"): the shifting-Zipf scenario with the
# controller on, with the stock-ADC run on the identical stream embedded as
# the baseline. The custom metrics carry the claim: mw-share (mean windowed
# max/mean load share) and mw-peak-req (mean hottest-proxy receptions per
# window) drop versus the baseline while p99-ticks and hit-rate hold.
REPLICATION_BENCH = BenchmarkReplicationZipf

.PHONY: all build test race vet fmt-check faults fuzz bench-check bench bench-tables bench-farm bench-replication bench-replication-baseline bench-compare bench-sweep bench-profile loadtest chaos trace-smoke telemetry-smoke figures clean

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

# Fault-injection gate: race-clean tests of the fault/recovery packages,
# then the resilience experiment at smoke scale (hit rate & completion vs
# message loss, with and without the recovery protocol).
faults:
	$(GO) test -race ./internal/sim ./internal/proxy ./internal/cluster
	$(GO) run ./cmd/adcsweep -metric resilience -scale 0.01 -losses 0,0.01,0.05

# Engine hot-path benchmarks: runs the sim and cluster benchmarks and
# records name, ns/op and allocs/op plus the git SHA in BENCH_engine.json.
# BENCH_baseline.json (the pre-optimization numbers) is embedded under
# "baseline" so the file carries both before and after measurements.
bench: bench-tables
	{ $(GO) version; \
	  $(GO) test -bench '$(ENGINE_BENCH)' -run '^$$' ./internal/sim/ ./internal/cluster/; } \
	| $(GO) run ./cmd/benchjson -baseline BENCH_baseline.json > BENCH_engine.json
	@cat BENCH_engine.json

# Mapping-table benchmarks: reference-size (20k/20k/10k) Update and Lookup
# mixes per backend, recorded with the pre-overhaul numbers embedded as the
# baseline (BENCH_tables_baseline.json).
bench-tables:
	{ $(GO) version; \
	  $(GO) test -bench '$(TABLES_BENCH)' -run '^$$' ./internal/core/ ./internal/sim/; } \
	| $(GO) run ./cmd/benchjson -baseline BENCH_tables_baseline.json > BENCH_tables.json
	@cat BENCH_tables.json

# HTTP-farm benchmarks: real loopback sockets end to end, recorded with
# the pre-optimization numbers (BENCH_farm_baseline.json) embedded.
bench-farm:
	{ $(GO) version; \
	  $(GO) test -bench '$(FARM_BENCH)' -run '^$$' ./internal/httpproxy/; } \
	| $(GO) run ./cmd/benchjson -baseline BENCH_farm_baseline.json > BENCH_farm.json
	@cat BENCH_farm.json

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

# Hot-object replication benchmark: the controller-on scenario, recorded
# with the stock-ADC numbers (BENCH_replication_baseline.json) embedded.
bench-replication:
	{ $(GO) version; \
	  $(GO) test -bench '$(REPLICATION_BENCH)' -benchtime 5x -run '^$$' ./internal/cluster/; } \
	| $(GO) run ./cmd/benchjson -baseline BENCH_replication_baseline.json > BENCH_replication.json
	@cat BENCH_replication.json

# Re-records the stock-ADC baseline for bench-replication (same scenario,
# controller off via ADC_REPLICATION=off).
bench-replication-baseline:
	{ $(GO) version; \
	  ADC_REPLICATION=off $(GO) test -bench '$(REPLICATION_BENCH)' -benchtime 5x -run '^$$' ./internal/cluster/; } \
	| $(GO) run ./cmd/benchjson > BENCH_replication_baseline.json
	@cat BENCH_replication_baseline.json

# Regression gate: compares the recorded table numbers against their
# embedded baseline and fails on >10% ns/op regressions (20% for the
# noisier farm and replication files).
bench-compare:
	$(GO) run ./cmd/benchjson compare BENCH_tables.json
	$(GO) run ./cmd/benchjson compare BENCH_engine.json
	$(GO) run ./cmd/benchjson compare -threshold 20 BENCH_farm.json
	$(GO) run ./cmd/benchjson compare -threshold 20 BENCH_replication.json

# Sweep benchmarks compare the sequential and parallel runners; the rest
# regenerate every headline number in EXPERIMENTS.md.
bench-sweep:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# CPU + heap profiles of the engine benchmarks, for pprof inspection:
#   go tool pprof -top cpu.out
#   go tool pprof -top -sample_index=alloc_objects mem.out
bench-profile:
	$(GO) test -bench '$(ENGINE_BENCH)' -run '^$$' \
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
