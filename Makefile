# Build/verify/bench entry points for the ipmgo reproduction.
#
# `make verify` is the tier-1 chain from ROADMAP.md; `make race` covers
# the concurrent simulation paths introduced with the parallel ensemble
# driver; `make bench` records the tier-1 benchmark suite (with
# allocation counts) into a JSON snapshot for cross-PR comparison.

GO ?= go
BENCH_OUT ?= BENCH_pr10.json
BENCH_BASE ?= BENCH_pr9.json
BENCH_PATTERN ?= BenchmarkObserveHot|BenchmarkTableUpdate|BenchmarkMapUpdateManyKeys|BenchmarkAblationHashTable|BenchmarkEnsembleParallel|BenchmarkObserveTelemetry|BenchmarkProfstoreIngest|BenchmarkProfstoreAgg|BenchmarkDESScheduleRun|BenchmarkSpanRecord|BenchmarkQueueSubmit|BenchmarkClusterIngest|BenchmarkClusterAgg

.PHONY: build vet test race race-faults serve serve-load serve-e2e soak soak-short soak-cluster soak-cluster-short fuzz verify bench bench-check profile experiments trace faults clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-enabled pass over the packages that run simulations concurrently:
# the worker pool itself, the ensemble experiments that fan out on it,
# and the core packages those simulations exercise (including the DES
# event pool the whole simulator schedules through).
race:
	$(GO) test -race ./internal/des ./internal/parallel ./internal/experiments ./internal/cluster ./internal/ipm ./internal/telemetry ./internal/profstore ./internal/cmdqueue ./internal/storecluster

# Race-enabled pass over the fault-injection machinery: the end-to-end
# fault scenarios (rank death, hung-device watchdog, straggler skew,
# monitor panic) plus the packages that implement them.
race-faults:
	$(GO) test -race -run 'RankDeath|Watchdog|Straggler|MonitorPanic' .
	$(GO) test -race ./internal/faultsim ./internal/mpisim ./internal/gpusim ./internal/ipmparse

# Start the center-wide profile store (POST /ingest, GET /agg, /jobs,
# /regress, /metrics) with a write-ahead log for restart recovery.
serve:
	mkdir -p results
	$(GO) run ./cmd/ipmserve -addr :8080 -wal results/profiles.wal

# Hammer an ipmserve child with concurrent synthetic ingest+query
# traffic and verify deterministic output: the store harness with no
# kill cycles (see ipmserve -soak).
serve-load:
	$(GO) run ./cmd/ipmserve -soak -soak-jobs 200 -soak-workers 8 -soak-cycles 0

# End-to-end over real HTTP, race-enabled: ingest the sample profile
# from results/ and pin /agg to a golden, then the store harness with
# in-process members under concurrent load (a single node recovering
# from its WAL alone, and a 3-member R=2 cluster).
serve-e2e:
	$(GO) test -race -run ServeE2E .

# Kill/restart durability soak, one flag set for every fleet size:
# ipmserve re-execs itself as -soak-members child servers, each over
# its own WAL, sustains concurrent ingest through rotating routers,
# SIGKILLs a rotating member mid-ingest -soak-cycles times, then
# SIGTERMs and cold restarts the fleet. It gates, on the live fleet and
# again after the restart, on zero lost acknowledged jobs and /agg +
# /jobs + /regress byte-identical from EVERY member to a never-killed
# single-node reference. `soak-short` (one node) and
# `soak-cluster-short` (3 members, one kill cycle, well under 30s) are
# the bounded CI variants wired into `make verify`.
soak:
	$(GO) run ./cmd/ipmserve -soak -soak-members 1 -soak-jobs 400 -soak-cycles 6 -soak-timeout 120s

soak-short:
	$(GO) run ./cmd/ipmserve -soak -soak-members 1 -soak-jobs 80 -soak-cycles 3 -soak-timeout 30s

soak-cluster:
	$(GO) run ./cmd/ipmserve -soak -soak-members 3 -soak-replicas 2 -soak-jobs 240 -soak-cycles 4 -soak-timeout 120s

soak-cluster-short:
	$(GO) run ./cmd/ipmserve -soak -soak-members 3 -soak-replicas 2 -soak-jobs 60 -soak-cycles 1 -soak-timeout 30s

# Short native-fuzz pass over both parser entry points (strict and
# tolerant), the streaming-scanner differential, the framed-WAL replay
# path and the two cluster merge paths (per-job wire rollups and
# partials); longer sessions:
# go test -fuzz FuzzScanVsParse ./internal/profstore
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/ipmparse
	$(GO) test -run '^$$' -fuzz FuzzTolerant -fuzztime $(FUZZTIME) ./internal/ipmparse
	$(GO) test -run '^$$' -fuzz FuzzScanVsParse -fuzztime $(FUZZTIME) ./internal/profstore
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/profstore
	$(GO) test -run '^$$' -fuzz FuzzRollupWire -fuzztime $(FUZZTIME) ./internal/profstore
	$(GO) test -run '^$$' -fuzz FuzzPartialMerge -fuzztime $(FUZZTIME) ./internal/profstore

verify: build vet test race-faults serve-e2e soak-short soak-cluster-short fuzz bench-check

# -p 1 serialises the per-package test binaries: the ensemble benchmarks
# saturate all cores, and letting them run beside the nanosecond-scale
# hot-path benchmarks inflates the latter by double-digit percentages.
# -count runs each benchmark BENCH_COUNT times; benchjson keeps the
# fastest repetition (the noise floor) for the snapshot.
BENCH_COUNT ?= 5
bench:
	$(GO) test -p 1 -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) ./... | $(GO) run ./cmd/benchjson -o $(BENCH_OUT) -compare $(BENCH_BASE)

# Like bench, but a CI gate: fail (exit 3) if any benchmark regressed
# more than BENCH_THRESHOLD percent in ns/op or allocs/op against the
# committed PR-10 snapshot. Writes its measurements to results/ so it
# never clobbers the committed baseline. The threshold is forgiving
# because shared CI boxes jitter; the min-of-BENCH_COUNT noise floor
# (see cmd/benchjson) absorbs most of it.
BENCH_THRESHOLD ?= 30
BENCH_CHECK_BASE ?= BENCH_pr10.json
bench-check:
	mkdir -p results
	$(GO) test -p 1 -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) ./... | $(GO) run ./cmd/benchjson -o results/bench_check.json -compare $(BENCH_CHECK_BASE) -threshold $(BENCH_THRESHOLD)

# Capture CPU + allocation profiles of the heaviest bundled workload
# (an HPL run) for pprof analysis; see EXPERIMENTS.md "Profiling the
# simulator" for the reading recipe.
PROFILE_WORKLOAD ?= hpl
profile:
	mkdir -p results
	$(GO) run ./cmd/ipmrun -cpuprofile results/cpu.pprof -memprofile results/allocs.pprof \
		-nodes 4 $(PROFILE_WORKLOAD) > /dev/null
	@echo "profiles: results/cpu.pprof results/allocs.pprof"
	@echo "read with: go tool pprof -top results/cpu.pprof"

experiments:
	$(GO) run ./cmd/experiments -quick

# Produce a sample Perfetto-loadable timeline trace from the square
# workload (open results/square_trace.json in https://ui.perfetto.dev).
trace:
	mkdir -p results
	$(GO) run ./cmd/ipmrun -trace results/square_trace.json square

# Produce a sample degraded profile: rank 2 of 4 dies mid-run, the
# survivors finish, and the banner/XML carry the degraded-fidelity
# markers (see EXPERIMENTS.md "Rank-death run").
faults:
	mkdir -p results
	$(GO) run ./cmd/ipmrun -nodes 4 -faults testdata/faults/rankdeath.json \
		-xml results/faultdemo_rankdeath.xml faultdemo \
		> results/faultdemo_rankdeath.banner.txt
	$(GO) run ./cmd/ipmparse results/faultdemo_rankdeath.xml > /dev/null

clean:
	rm -f results/bench_check.json results/cpu.pprof results/allocs.pprof
