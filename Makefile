# noiselab build/test/bench entry points.

GO ?= go

.PHONY: all build test vet fmt race bench bench-kernel bench-obs bench-cluster bench-service bench-tables bench-quick benchdiff benchdiff-service examples clean cover test-service test-fleet test-analyze test-io fuzz-smoke serve serve-fleet

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

test:
	$(GO) test ./...

cover:
	$(GO) test ./... -cover

# Race-detector run across every package: the parallel execution layer
# (internal/experiment.Executor) must stay data-race free.
race:
	$(GO) test -race ./...

# The experiment-serving daemon and its result cache, under the race
# detector: the bounded queue, singleflight dedup, cancellation and drain
# paths are all concurrency-sensitive.
test-service:
	$(GO) test -race ./internal/service/ ./internal/rescache/

# The sharded-fleet layer: ring/splitter/merger property tests and the
# 3-backend coordinator e2e suite under the race detector, 3x like the
# service job (the coordinator's job table is the service's queue,
# single-flight and SSE code), plus the SSE stream contract (repeated:
# subscriber registration races only surface across runs).
test-fleet:
	$(GO) test -race -count=3 ./internal/fleet/
	$(GO) test -race -count=3 -run 'TestSSE' ./internal/service/

# Differential bottleneck analysis (internal/analyze, the advisor it feeds,
# and the slope-fitting helper), under the race detector: the sweep fans
# every (source, rung, rep) cell over the executor's worker pool, so the
# determinism suite (golden fixture at parallelism 1 vs 8, pooled/fresh
# worlds, obs attached vs not) plus the service/fleet analysis e2e must hold under
# -race. 3x because the e2e exercises queue/cache/SSE timing windows.
# internal/obs rides along: each cell's region fold (obs.Options.OnEvent)
# runs on a worker goroutine and is read after the series returns.
test-analyze:
	$(GO) test -race -count=3 ./internal/analyze/ ./internal/advisor/ ./internal/stats/ ./internal/obs/
	$(GO) test -race -count=3 -run 'TestAnalysis' ./internal/service/
	$(GO) test -race -count=3 -run 'TestFleetAnalysis' ./internal/fleet/

# Blocking I/O, devices, and the deadline class (DESIGN.md §13): the
# cpusched block/wake + EDF/CBS unit suite, the I/O workload shapes, the
# experiment-layer golden fixture (the six I/O+deadline cases ride the
# ordinary golden kernel tests), and the fleet/service byte-identity e2e
# for an I/O+deadline job. 3x under -race: pooled worlds reset their
# schedulers across a worker pool, so any nondeterminism in device-queue or
# CBS-timer replay only surfaces across repeats.
test-io:
	$(GO) test -race -count=3 ./internal/cpusched/ ./internal/workloads/
	$(GO) test -race -count=3 -run 'TestGolden' ./internal/experiment/
	$(GO) test -race -count=3 -run 'TestResultDeterminismIODeadline|TestValidateDeadlineFields' ./internal/service/
	$(GO) test -race -count=3 -run 'TestFleetByteIdenticalIODeadline' ./internal/fleet/

# Short deterministic-budget fuzz smoke of nine targets: the trace codec
# round trip (FuzzTraceCodecRoundTrip), cache-key canonicalization
# (FuzzSpecHashCanonical), pooled-vs-fresh reps (FuzzBatchEqualsFresh),
# the scheduler Reset with pending BlockOn/IRQ timers
# (FuzzBlockOnForkDeterminism), ring placement (FuzzRingPlacement), the
# analysis spec hash (FuzzAnalysisSpecHash), the analysis-artifact codec
# (FuzzArtifactRoundTrip), Timer.Reset against Cancel+At
# (FuzzEngineResetEquivalence), and compiled chunk tables against the
# per-claim walk (FuzzCompiledChunks). `go test -fuzz` accepts one target per
# package invocation, hence the separate runs. FUZZTIME is overridable; 10s
# each keeps CI wall clock bounded.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/trace -run xxx -fuzz 'FuzzTraceCodecRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service -run xxx -fuzz 'FuzzSpecHashCanonical$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment -run xxx -fuzz 'FuzzBatchEqualsFresh$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cpusched -run xxx -fuzz 'FuzzBlockOnForkDeterminism$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fleet -run xxx -fuzz 'FuzzRingPlacement$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analyze -run xxx -fuzz 'FuzzAnalysisSpecHash$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analyze -run xxx -fuzz 'FuzzArtifactRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run xxx -fuzz 'FuzzEngineResetEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/parmodel -run xxx -fuzz 'FuzzCompiledChunks$$' -fuzztime $(FUZZTIME)

# Run the daemon locally with a throwaway cache.
serve:
	$(GO) run ./cmd/noiselabd -addr :8723 -cache-dir /tmp/noiselab-cache

# Run a 3-backend fleet locally: three daemons on :8724-:8726 plus the
# coordinator on :8733. Ctrl-C tears the whole process group down.
serve-fleet:
	$(GO) run ./cmd/noiselabd -addr :8724 -cache-dir /tmp/noiselab-cache-0 & \
	$(GO) run ./cmd/noiselabd -addr :8725 -cache-dir /tmp/noiselab-cache-1 & \
	$(GO) run ./cmd/noiselabd -addr :8726 -cache-dir /tmp/noiselab-cache-2 & \
	$(GO) run ./cmd/noisefleet -addr :8733 -backends http://localhost:8724,http://localhost:8725,http://localhost:8726

# Full benchmark harness: every table, figure, and ablation.
bench:
	$(GO) test . -run xxx -bench . -benchmem -timeout 4h

# Kernel evidence: the simulation-kernel benchmarks (end-to-end run plus
# the sim/cpusched microbenches), recorded as committed JSON so before/after
# numbers can be diffed. BENCHTIME is overridable for CI smoke runs.
BENCHTIME ?= 300x
bench-kernel:
	{ $(GO) test . -run xxx -bench 'BenchmarkSimulatedRun$$|BenchmarkSimulatedRunBatch$$|BenchmarkSnapshotSweep$$' -benchmem -benchtime $(BENCHTIME) -timeout 1h; \
	  $(GO) test ./internal/sim/ ./internal/cpusched/ -run xxx -bench . -benchmem -benchtime $(BENCHTIME) -timeout 1h; } \
	| $(GO) run ./cmd/benchjson -note "trajectory (same host, -benchtime 300x, host is a noisy VM so compare allocs and paired same-day minima, not raw ns across files): seed BenchmarkSimulatedRun 1310180 ns/op / 771925 B/op / 10039 allocs/op; this file's batched rep runs ~1.37x faster than the unbatched pre-batch kernel in interleaved same-host A/B (minima), at 251 allocs/rep vs 1225" > BENCH_kernel.json
	@cat BENCH_kernel.json

# Regression gate: run the end-to-end kernel benchmark fresh and compare it
# against the committed BENCH_kernel.json. BENCHDIFF_FAIL_OVER is the
# new/old ns/op ratio above which matched benchmarks fail the diff (0 =
# report only); BENCHDIFF_MATCH limits which benchmarks gate. CI runs this
# with a 1.25 threshold before regenerating the evidence.
BENCHDIFF_FAIL_OVER ?= 0
BENCHDIFF_MATCH ?= BenchmarkSimulatedRun$$
benchdiff:
	$(GO) test . -run xxx -bench 'BenchmarkSimulatedRun$$|BenchmarkSimulatedRunBatch$$' -benchmem -benchtime $(BENCHTIME) -timeout 1h \
	| $(GO) run ./cmd/benchdiff -old BENCH_kernel.json -match '$(BENCHDIFF_MATCH)' -fail-over $(BENCHDIFF_FAIL_OVER)

# Observability overhead evidence: the bare run against the obs recorder's
# off/counters/timeline modes, recorded as committed JSON. The "off" case
# must stay within 2% of BenchmarkSimulatedRun (nil-observer fast path,
# zero allocations when disabled) — see DESIGN.md §8.
bench-obs:
	$(GO) test . -run xxx -bench 'BenchmarkSimulatedRun$$|BenchmarkSimulatedRunObs' \
	  -benchmem -benchtime $(BENCHTIME) -timeout 1h \
	| $(GO) run ./cmd/benchjson -note "obs overhead: off mode must stay within 2% of BenchmarkSimulatedRun (passive observer, nil-check fast path)" > BENCH_obs.json
	@cat BENCH_obs.json

# Simulated-datacenter evidence: the headline straggler study per placement
# policy, recorded as committed JSON. The custom metrics carry the study's
# two headline numbers: throughput (jobs/s) and the straggler slowdown
# ratio (straggler-placed mean makespan over the rest; absent for
# noise-aware, which avoids the straggler entirely).
CLUSTER_BENCHTIME ?= 20x
bench-cluster:
	$(GO) test ./internal/cluster/ -run xxx -bench 'BenchmarkClusterPolicy' \
	  -benchmem -benchtime $(CLUSTER_BENCHTIME) -timeout 1h \
	| $(GO) run ./cmd/benchjson -note "straggler study: 4 x tiny-test, node 0 at x40 noise, 3 tenants x 8 fork-join jobs (see StragglerStudySpec)" > BENCH_cluster.json
	@cat BENCH_cluster.json

# Service-layer throughput evidence: end-to-end jobs/sec and p99 latency
# through a coordinator fanning each job over three in-process backends,
# plus the merged-cache resubmit fast path, recorded as committed JSON.
# The custom jobs/s and p99-ms metrics land in each benchmark's Extra map.
SERVICE_BENCHTIME ?= 100x
bench-service:
	$(GO) test ./internal/fleet/ -run xxx -bench 'BenchmarkFleet' -benchmem -benchtime $(SERVICE_BENCHTIME) -timeout 1h \
	| $(GO) run ./cmd/benchjson -note "3-backend in-process fleet, tiny-test kernel x6 reps per job (host is a noisy VM: compare allocs and same-day paired runs, not raw ns across files); cached resubmit must answer from the coordinator's merged cache without touching a backend" > BENCH_service.json
	@cat BENCH_service.json

# Regression gate for the fleet path, mirroring `benchdiff`: fresh fleet
# benchmarks against the committed BENCH_service.json.
BENCHDIFF_SERVICE_MATCH ?= BenchmarkFleetThroughput$$
benchdiff-service:
	$(GO) test ./internal/fleet/ -run xxx -bench 'BenchmarkFleet' -benchmem -benchtime $(SERVICE_BENCHTIME) -timeout 1h \
	| $(GO) run ./cmd/benchdiff -old BENCH_service.json -match '$(BENCHDIFF_SERVICE_MATCH)' -fail-over $(BENCHDIFF_FAIL_OVER)

# Only the paper's tables/figures (skips ablations and micro-benches).
bench-tables:
	$(GO) test . -run xxx -bench 'BenchmarkPaper' -benchtime 1x -timeout 4h

# A fast smoke of the harness at reduced reps.
bench-quick:
	REPRO_SCALE=0.25 $(GO) test . -run xxx -bench 'BenchmarkPaper/(table1|table3|fig2)$$' -benchtime 1x -timeout 1h

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/nbody-compare
	$(GO) run ./examples/minife-mitigation
	$(GO) run ./examples/schedbench-motivation
	$(GO) run ./examples/advisor

# The artifacts the reproduction instructions ask for. The full bench
# suite regenerates every table/figure and needs more than go test's
# default 10-minute timeout.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem -timeout 3h ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
