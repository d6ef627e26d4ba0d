# Standard development targets. `make race` is part of the merge bar:
# the parallel experiment runner must stay race-clean.

GO ?= go

.PHONY: all build test race vet fmt-check cover cover-integration faults fuzz bench-check benchmark benchmark-aa benchmark-pairs pairs-summary pairs-check benchmark-exact bench-sweep bench-profile loadtest chaos trace-smoke telemetry-smoke figures clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The cache-prefetch hint in internal/prefetch is assembly on amd64 and
# arm64 and a Go stub elsewhere: vetting the package for arm64 and for 386
# as well holds both the arm64 assembly and the stub to the declaration.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/prefetch ./internal/core ./internal/sim
	GOARCH=386 $(GO) vet ./internal/prefetch ./internal/core ./internal/sim

# Fails, listing the files, if any Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# Coverage gate: every test once, each package's statements counted from
# every test binary (-coverpkg=./...). Prints the total and every function
# outside examples/ that no test reaches, keyed file:function. Fails on such
# a function that testdata/cover-allowlist.txt does not list, and on a
# listed one that a test now reaches: the list may only shrink.
cover:
	$(GO) test -count=1 -coverpkg=./... -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | awk -v mod="$$($(GO) list -m)/" -v allow=testdata/cover-allowlist.txt "$$ALLOWLIST_AWK"

# Integration coverage gate: which code anything a user, CI or the
# benchmark runs reaches, as opposed to `make cover`'s tests. Builds the
# five commands, the four examples and bench/ with -cover, counting every
# package of the module, runs ci.yml's farm-smoke, chaos-smoke, trace-smoke,
# telemetry-smoke and replication-smoke commands, its experiment-study runs,
# the examples and each bench workload at -seconds 1 -scale 0.1, untraced
# and traced, under one GOCOVERDIR (~70 s on two cores), then prints the union's total
# and every function outside examples/ that none of them reaches. Fails,
# as `make cover` does, on such a function that
# testdata/integration-allowlist.txt does not list, and on a listed one
# that is now reached.
# Binaries, counters and the runs' files stay in .cover-integration/.
cover-integration:
	@set -e; dir=.cover-integration; rm -rf "$$dir"; mkdir -p "$$dir/bin" "$$dir/data"; \
	$(GO) build -cover -coverpkg=./... -o "$$dir/bin/" ./cmd/... ./examples/...; \
	$(GO) -C bench build -cover -coverpkg="$$($(GO) list -m)/..." -o "$(CURDIR)/$$dir/bin/adcbench" .; \
	export GOCOVERDIR="$$dir/data"; b="$$dir/bin"; \
	run() { echo "cover-integration: $$*" >&2; "$$@" > /dev/null; }; \
	run "$$b/adcload" -proxies 4 -rate 1000 -duration 3s -conns 32 -warm 2000 -quiet; \
	run "$$b/adcload" -proxies 2 -rate 4000 -duration 2s -conns 64 -warm 500 -max-active 8 -max-queue 8 -quiet; \
	run "$$b/adcload" -proxies 4 -rate 800 -duration 8s -faults 'kill=p1@2s,restart=p1@5s' -probe-interval 50ms -quiet; \
	run "$$b/adcsim" -runtime vtime -requests 20000 -recovery '' -faults 'kill=p1@2s,restart=p1@5s'; \
	run "$$b/adcload" -proxies 4 -rate 800 -duration 6s -faults 'partition=p1:p2@2s+3s' -probe-interval 50ms -quiet; \
	run "$$b/adcsim" -runtime vtime -requests 20000 -quiet -trace "$$dir/trace-smoke.spans.json"; \
	run "$$b/adctrace" -min-complete 1 "$$dir/trace-smoke.spans.json"; \
	run "$$b/adcsim" -requests 20000 -write-trace "$$dir/trace-smoke.bin"; \
	run "$$b/adcsim" -requests 20000; \
	run "$$b/adcsim" -replay "$$dir/trace-smoke.bin"; \
	run "$$b/adcload" -proxies 8 -rate 1500 -duration 8s -warm 2000 \
	  -faults 'kill=p2@2s,restart=p2@5s' -probe-interval 50ms -quiet \
	  -trace-sample 1 -trace-dump "$$dir/telemetry-smoke.spans.json" -lint-metrics; \
	run "$$b/adctrace" -min-complete 0.99 "$$dir/telemetry-smoke.spans.json"; \
	run "$$b/adcsweep" -metric loadspread -proxies 8 -seed 7 -quiet; \
	run "$$b/adcsweep" -metric figures -scale 0.02 -quiet -out "$$dir/figures"; \
	run "$$b/adcsweep" -metric resilience -scale 0.02 -quiet; \
	run "$$b/adcsweep" -metric convergence -scale 0.02 -quiet; \
	run "$$b/adcload" -proxies 4 -rate 1000 -duration 3s -warm 2000 -replicate -quiet; \
	for ex in quickstart adaptivity elasticity httpfarm; do run "$$b/$$ex"; done; \
	for w in sim_paper sim_shift_open farm_hot farm_churn; do for tr in 0 1; do \
	  run "$$b/adcbench" -out "$$dir/bench" -workload "$$w" -seconds 1 -scale 0.1 -trace "$$tr"; \
	done; done; \
	$(GO) tool covdata func -i="$$GOCOVERDIR" | awk -v mod="$$($(GO) list -m)/" -v allow=testdata/integration-allowlist.txt "$$ALLOWLIST_AWK"

# The allowlist check of `cover` and `cover-integration`, over `go tool
# cover -func` or `go tool covdata func` output: allow names the list, one
# file:function and its reason a line, mod the module path cut off every
# file. Prints every unreached function outside examples/ and the total;
# fails on an unreached function the list does not name, on a listed one
# now reached, and on a line without a reason.
define ALLOWLIST_AWK
BEGIN {
	while ((getline line < allow) > 0) {
		if (line ~ /^(#|[ \t]*$$)/) continue
		if (line !~ /^[^ \t]+[ \t]+[^ \t]/) { print "no reason given in " allow ": " line; bad = 1 }
		split(line, f, /[ \t]+/); listed[f[1]] = 1
	}
}
$$1 ~ /^total:?$$/ { total = $$NF; next }
$$NF == "0.0%" {
	file = substr($$1, length(mod) + 1); sub(/:[0-9]+:$$/, "", file)
	if (file ~ /^examples\//) next
	key = file ":" $$2; n++
	if (key in listed) { unreached[key] = 1; print "0%  " key " (allowlisted)" }
	else { print "0%  " key "  <- not in " allow; bad = 1 }
}
END {
	for (k in listed) if (!(k in unreached)) { print "reached now, drop it from " allow ": " k; bad = 1 }
	print n + 0 " functions outside examples/ unreached; statement coverage " total
	exit bad
}
endef
export ALLOWLIST_AWK

# Short native-fuzz pass over the parsers that read bytes from outside — the
# farm's HTTP head codec against net/http as the oracle (requests and
# replies), its server loop and its transport (what a proxy reads off a
# socket), the replication and trace-context headers, the -faults /
# -recovery spec grammar (what a flag hands either driver), the /metrics
# exposition parser (what adctop and adcload -lint-metrics scrape), the
# trace reader (what adcsim -replay loads) and the JSON experiment file
# (what adcsim -config reads) —
# and over the engine's event queue, whose pop order every golden constant
# rests on, the two open-addressed tables every proxy message probes (the
# mapping tables' directory and the request-ID table of pending passes), the
# ordered tables' heap, held to the paper's sorted list, the Zipf
# sampler's guide-table draw, held to a binary search over its CDF, and the
# span appender that writes trace files, held to encoding/json.
# The committed seed corpora under testdata/fuzz also run as ordinary test
# cases in `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReplicaHeaders -fuzztime 10s ./internal/httpproxy/
	$(GO) test -run '^$$' -fuzz FuzzSpanHeaders -fuzztime 10s ./internal/httpproxy/
	$(GO) test -run '^$$' -fuzz FuzzServeConn -fuzztime 10s ./internal/httpproxy/
	$(GO) test -run '^$$' -fuzz FuzzRequestHead -fuzztime 10s ./internal/httpproxy/
	$(GO) test -run '^$$' -fuzz FuzzResponseHead -fuzztime 10s ./internal/httpproxy/
	$(GO) test -run '^$$' -fuzz FuzzTransportConn -fuzztime 10s ./internal/httpproxy/
	$(GO) test -run '^$$' -fuzz FuzzParseFaultSpec -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzParseRecoverySpec -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzPromtextParse -fuzztime 10s ./internal/promtext/
	$(GO) test -run '^$$' -fuzz FuzzEventQueueOrder -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzDirectory -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzOrdered -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzReqTable -fuzztime 10s ./internal/ids/
	$(GO) test -run '^$$' -fuzz FuzzTraceReaders -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzConfigParse -fuzztime 10s ./internal/config/
	$(GO) test -run '^$$' -fuzz FuzzZipfRank -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz FuzzAppendSpan -fuzztime 10s ./internal/obs/

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

# Paired timing of this checkout against a base revision, the rule a
# performance claim is judged by: PAIRS alternating untraced runs of the base
# revision's bench/ and of this checkout's, on one WORKLOAD at SEED, the base
# running first in odd pairs and second in even ones. The base tree is
# extracted with git archive into .bench_build/base-<rev>/ (reused across
# calls); each side's JSON lines stay in .bench_build/pairs/. Prints
# pairs-summary's table over them.
#   make benchmark-pairs BASE=HEAD~1 WORKLOAD=farm_churn PAIRS=10 SEED=2
BASE     ?= HEAD
WORKLOAD ?= farm_churn
PAIRS    ?= 10
SEED     ?= 1
benchmark-pairs:
	@set -eu; rev="$$(git rev-parse --short '$(BASE)')"; base=".bench_build/base-$$rev"; \
	if [ ! -f "$$base/bench/run.sh" ]; then \
	  rm -rf "$$base"; mkdir -p "$$base"; git archive "$$rev" | tar -x -C "$$base"; \
	fi; \
	out=".bench_build/pairs/$$rev-$(WORKLOAD)-seed$(SEED)"; mkdir -p "$$out"; \
	: > "$$out/base.jsonl"; : > "$$out/change.jsonl"; \
	run() { bash "$$1/bench/run.sh" -workload '$(WORKLOAD)' -seed '$(SEED)' -trace 0 | tail -n 1 >> "$$out/$$2.jsonl"; }; \
	i=1; while [ "$$i" -le '$(PAIRS)' ]; do \
	  if [ $$((i % 2)) -eq 1 ]; then run "$$base" base; run . change; else run . change; run "$$base" base; fi; \
	  echo "benchmark-pairs: $(WORKLOAD) seed $(SEED): pair $$i of $(PAIRS) done" >&2; i=$$((i + 1)); \
	done; \
	echo "$(WORKLOAD) seed $(SEED): base $$rev against this checkout, $(PAIRS) pairs"; \
	awk "$$PAIRS_AWK" BENCHMARK.json "$$out/base.jsonl" "$$out/change.jsonl"

# The summary benchmark-pairs prints, on its own over any two files of the
# driver's JSON lines, line i of each being pair i. Per metric: each side's
# median and quartiles and the pairs the change won (ties count for neither;
# BENCHMARK.json says which way is better), as context; then the paired
# verdict: the median of the per-pair change/base ratios, its 95 % bootstrap
# interval (2000 resamples of the pairs, a fixed-seed Park-Miller generator,
# so every awk gives the same interval; the 50th lowest and 50th highest
# resampled median) and the two-sided sign-test p of ratios above 1 against
# ratios below (ties dropped). A pair whose base value is 0 has no ratio.
#   make pairs-summary BASE_JSONL=a.jsonl CHANGE_JSONL=b.jsonl
pairs-summary:
	@awk "$$PAIRS_AWK" BENCHMARK.json '$(BASE_JSONL)' '$(CHANGE_JSONL)'

# pairs-summary over testdata/pairs/, whose ratios, intervals and p values
# are worked out by hand in its README; CI runs it.
pairs-check:
	@$(MAKE) -s pairs-summary BASE_JSONL=testdata/pairs/base.jsonl CHANGE_JSONL=testdata/pairs/change.jsonl \
	  | diff -u testdata/pairs/want.txt - && echo "pairs-check: ok"

# pairs-summary's program: BENCHMARK.json first (which way each metric is
# better), then the base's JSON lines, then the change's.
define PAIRS_AWK
FILENAME == ARGV[1] {
	if (match($$0, /"name": *"[^"]*"/)) name = field()
	if (match($$0, /"better": *"[a-z]*"/)) better[name] = field()
	next
}
{
	side = (FILENAME == ARGV[2]) ? "base" : "change"
	runs[side]++
	if ($$0 !~ /"correct":true/) bad++
	line = $$0
	while (match(line, /"[a-z0-9_.]+":[{]"value":[-+0-9.eE]+/)) {
		s = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
		m = s; sub(/^"/, "", m); sub(/".*/, "", m)
		v = s; sub(/.*"value":/, "", v)
		val[side, m, runs[side]] = v + 0
		if (!(m in seen)) { seen[m] = 1; order[++metrics] = m }
	}
}
END {
	printf "%-15s %-7s %29s %29s %6s %-15s %7s %17s %8s\n", "metric", "better", "base median [q1 q3]", "change median [q1 q3]", "wins", "|diff|>base IQR", "ratio", "95% CI", "sign p"
	for (k = 1; k <= metrics; k++) {
		m = order[k]; wins = 0; pairs = 0; n = 0; above = 0; below = 0
		for (i = 1; i <= runs["base"] && i <= runs["change"]; i++) {
			if (!(("base", m, i) in val) || !(("change", m, i) in val)) continue
			b = val["base", m, i]; c = val["change", m, i]; pairs++
			if ((better[m] == "higher" && c > b) || (better[m] == "lower" && c < b)) wins++
			if (b == 0) continue
			ratio[++n] = c / b
			if (c / b > 1) above++
			if (c / b < 1) below++
		}
		quartiles("base", m); bq1 = q1; bmed = med; bq3 = q3
		quartiles("change", m)
		d = med - bmed; if (d < 0) d = -d
		apart = (d > bq3 - bq1) ? "yes" : "no"
		printf "%-15s %-7s %11.5g [%7.5g %7.5g] %11.5g [%7.5g %7.5g] %2d/%-3d %-15s", m, better[m], bmed, bq1, bq3, med, q1, q3, wins, pairs, apart
		if (n == 0) { printf " %7s %17s %8s\n", "-", "-", "-"; continue }
		bootstrap(n)
		printf " %7.4f [%7.4f %7.4f] %8.3g\n", rmed, lo, hi, signp(above, above + below)
	}
	if (bad) { print bad " run(s) did not report correct=true"; exit 1 }
}
function field(   s) { s = substr($$0, RSTART, RLENGTH); sub(/^"[a-z]*": *"/, "", s); sub(/"$$/, "", s); return s }
function quartiles(side, m,   a, n, i) {
	n = 0
	for (i = 1; i <= runs[side]; i++) if ((side, m, i) in val) a[++n] = val[side, m, i]
	isort(a, n)
	q1 = at(a, n, 0.25); med = at(a, n, 0.5); q3 = at(a, n, 0.75)
}
function at(a, n, p,   h, lo) { if (n == 0) return 0; h = (n - 1) * p + 1; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
function median(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
# bootstrap sets rmed to the median of ratio[1..n], and lo and hi to its
# 95 % interval: the 50th lowest and 50th highest of 2000 medians of n
# ratios drawn with replacement. The generator restarts for every metric.
function bootstrap(n,   r, i, j, x, meds, B) {
	for (i = 1; i <= n; i++) r[i] = ratio[i]
	isort(r, n); rmed = median(r, n)
	B = 2000; x = 20261017
	for (j = 1; j <= B; j++) {
		for (i = 1; i <= n; i++) { x = (16807 * x) % 2147483647; r[i] = ratio[int(x / 2147483647 * n) + 1] }
		isort(r, n); meds[j] = median(r, n)
	}
	hsort(meds, B)
	lo = meds[B / 40]; hi = meds[B + 1 - B / 40]
}
# signp is the two-sided sign-test p of k successes in n fair trials.
function signp(k, n,   i, c, s, t) {
	if (n == 0) return 1
	t = (k < n - k) ? k : n - k
	c = 1; s = 0
	for (i = 0; i <= t; i++) { s += c; c = c * (n - i) / (i + 1) }
	s = 2 * s / 2 ^ n
	return s > 1 ? 1 : s
}
function isort(a, n,   i, j, t) { for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t } }
function hsort(a, n,   i, t) {
	for (i = int(n / 2); i >= 1; i--) sift(a, i, n)
	for (i = n; i > 1; i--) { t = a[1]; a[1] = a[i]; a[i] = t; sift(a, 1, i - 1) }
}
function sift(a, i, n,   c, t) {
	while ((c = 2 * i) <= n) {
		if (c < n && a[c + 1] > a[c]) c++
		if (a[i] >= a[c]) return
		t = a[i]; a[i] = a[c]; a[c] = t; i = c
	}
}
endef
export PAIRS_AWK

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
# EXPERIMENTS.md "Chaos runs"). Override the schedule (adcsim's -faults
# grammar; the farm plays kill, restart and partition) with CHAOS=...
CHAOS ?= kill=p3@5s,restart=p3@15s
chaos:
	$(GO) run ./cmd/adcload -rate $(RATE) -duration 20s -proxies $(PROXIES) \
	  -faults '$(CHAOS)' -quiet

# Sweep benchmarks compare the sequential and parallel runners; the rest
# regenerate every headline number in EXPERIMENTS.md.
bench-sweep:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# CPU + heap profiles of the engine benchmarks (cpu.out, mem.out), of the
# mapping tables' update and lookup benchmarks at the reference 20k/20k/10k
# shape (core-cpu.out, core-mem.out), of the request stream's generator
# and Zipf draw (workload-cpu.out, workload-mem.out) and of the farm hop,
# a local hit and a forwarded miss over loopback (httpproxy-cpu.out,
# httpproxy-mem.out), one pair per layer, and the heap profile of repeated
# sim_shift_open-shaped cluster runs (cluster-mem.out), for pprof:
#   go tool pprof -top cpu.out
#   go tool pprof -top -sample_index=alloc_objects mem.out
#   go tool pprof -top core-cpu.out
#   go tool pprof -top workload-cpu.out
#   go tool pprof -top -sample_index=alloc_space httpproxy-mem.out
#   go tool pprof -top -sample_index=alloc_space cluster-mem.out
bench-profile:
	$(GO) test -bench 'BenchmarkVEngineEcho|BenchmarkVEngineOpenLoop' -run '^$$' \
		-cpuprofile cpu.out -memprofile mem.out ./internal/sim/
	$(GO) test -bench 'BenchmarkTablesUpdate|BenchmarkTablesLookup' -run '^$$' \
		-cpuprofile core-cpu.out -memprofile core-mem.out ./internal/core/
	$(GO) test -bench 'BenchmarkGeneratorNext|BenchmarkZipfRank' -run '^$$' \
		-cpuprofile workload-cpu.out -memprofile workload-mem.out ./internal/workload/
	$(GO) test -bench 'BenchmarkHandleHit|BenchmarkForwardedMiss' -run '^$$' \
		-cpuprofile httpproxy-cpu.out -memprofile httpproxy-mem.out ./internal/httpproxy/
	$(GO) test -bench 'BenchmarkRunShiftOpen' -benchtime 3x -run '^$$' \
		-memprofile cluster-mem.out ./internal/cluster/
	@echo "wrote cpu.out, mem.out, core-cpu.out, core-mem.out, workload-cpu.out, workload-mem.out, httpproxy-cpu.out, httpproxy-mem.out and cluster-mem.out"

# Observability smoke: a small lossless traced run on the virtual-time
# engine, its events checked against the event schema as adcsim writes
# them as a span dump, then rebuilt into request trees and summarized by
# adctrace, which fails on any orphaned tree (-min-complete 1). The same
# 20 000-request workload is then written with -write-trace and replayed:
# the replay's requests, hit-rate and hops lines must equal the generated
# run's. CI uploads trace-smoke.spans.json as a workflow artifact.
trace-smoke:
	$(GO) run ./cmd/adcsim -runtime vtime -requests 20000 -quiet \
		-trace trace-smoke.spans.json
	$(GO) run ./cmd/adctrace -min-complete 1 trace-smoke.spans.json
	$(GO) run ./cmd/adcsim -requests 20000 -write-trace trace-smoke.bin
	$(GO) run ./cmd/adcsim -requests 20000 > trace-smoke.generated.txt
	$(GO) run ./cmd/adcsim -replay trace-smoke.bin > trace-smoke.replayed.txt
	@for label in requests 'hit rate' hops/request; do \
	  gen="$$(grep "^$$label " trace-smoke.generated.txt)"; rep="$$(grep "^$$label " trace-smoke.replayed.txt)"; \
	  test -n "$$gen" && test "$$gen" = "$$rep" \
	    || { echo "trace-smoke: replayed '$$rep', generated '$$gen'"; exit 1; }; \
	done; echo "trace-smoke: replay matches the generated run"

# Farm-telemetry smoke (DESIGN.md §17): a traced chaos run — every request
# spanned across proxies, every proxy's /metrics scraped and linted against
# the strict exposition parser — then adctrace reconstructs the
# cross-proxy trees from the scraped span dumps and gates on ≥99% of
# sampled requests forming complete (or explicitly truncated) trees.
telemetry-smoke:
	$(GO) run ./cmd/adcload -proxies 8 -rate 1500 -duration 8s -warm 2000 \
	  -faults 'kill=p2@2s,restart=p2@5s' -probe-interval 50ms -quiet \
	  -trace-sample 1 -trace-dump telemetry-smoke.spans.json -lint-metrics
	$(GO) run ./cmd/adctrace -min-complete 0.99 telemetry-smoke.spans.json

# Every figure and extension study at 1/10 scale, seed 1: ASCII charts on
# stdout, the committed figures/*.csv rewritten (Fig. 15's values are wall
# clock; the rest repeat byte for byte).
figures:
	$(GO) run ./cmd/adcsweep -metric figures -out figures

clean:
	$(GO) clean ./...
	rm -rf figures/*.csv cover.out .cover-integration cpu.out mem.out core-cpu.out core-mem.out workload-cpu.out workload-mem.out httpproxy-cpu.out httpproxy-mem.out cluster-mem.out sim.test core.test workload.test httpproxy.test cluster.test trace-smoke.spans.json trace-smoke.bin trace-smoke.*.txt telemetry-smoke.spans.json
