GO ?= go
FUZZTIME ?= 10s
BATCH ?= 32
JOBS ?= $(shell nproc 2>/dev/null || echo 4)

.PHONY: build test vet race test-par lint fuzz-smoke oracle-smoke oracle bench-par bench-hot bench-bytecode bench-promote bench-pipeline bench-smoke bench-pressure pressure-smoke serve-smoke bench-serve chaos-smoke cluster-smoke bench-cluster ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The parallel-pipeline determinism and isolation tests, explicitly
# under the race detector — the worker pool's acceptance gate.
test-par:
	$(GO) test -race -run 'Parallel|Corpus|DeriveSeed|Timings' ./internal/pipeline/... ./internal/workload/...

# Repo lint: every Go file gofmt-clean, and no wall-clock or unseeded
# randomness in the deterministic packages (internal/lint documents the
# rules).
lint:
	@out=$$(gofmt -l .) || exit 1; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/rplint -root .

# Short fuzzing pass over every native fuzz target. Each target runs
# for $(FUZZTIME) (default 10s) on top of its seed corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParser$$' -fuzztime $(FUZZTIME) ./internal/source
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineDifferential$$' -fuzztime $(FUZZTIME) ./internal/pipeline
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineFaults$$' -fuzztime $(FUZZTIME) ./internal/pipeline
	$(GO) test -run '^$$' -fuzz '^FuzzIRImport$$' -fuzztime $(FUZZTIME) ./internal/irimport

# Semantics-oracle smoke: 200 seeded generated programs, each compiled
# with and without promotion and run on all three interpreter paths;
# any observable divergence (or print→reimport round-trip break) fails
# the build with a shrunk counterexample.
oracle-smoke:
	$(GO) run ./cmd/rpbench -oracle 200 -seed 1 -size small -oracle-roundtrip

# Nightly-scale oracle sweep across the size classes, recorded as
# BENCH_oracle.json.
oracle:
	$(GO) run ./cmd/rpbench -oracle 2000 -seed 1 -size small -oracle-roundtrip
	$(GO) run ./cmd/rpbench -oracle 500 -seed 2 -size medium -oracle-roundtrip -json BENCH_oracle.json
	$(GO) run ./cmd/rpbench -oracle 100 -seed 3 -size large -oracle-roundtrip

# Sharded-batch benchmark: the stress corpus under -j 1 vs -j $(JOBS),
# each writing a machine-readable record for before/after comparison.
bench-par:
	$(GO) run ./cmd/rpbench -batch $(BATCH) -j 1       -timings -json BENCH_parallel_j1.json
	$(GO) run ./cmd/rpbench -batch $(BATCH) -j $(JOBS) -timings -json BENCH_parallel_jN.json

# Hot-path benchmark: the same corpus at -j 1 on the legacy paths
# (no analysis cache, map-based interpreter) versus the optimized
# default, then merged into one before/after record. Compare the
# ns_per_function and allocs_per_func fields.
bench-hot:
	$(GO) run ./cmd/rpbench -batch $(BATCH) -j 1 -legacy -timings -json BENCH_hotpath_before.json
	$(GO) run ./cmd/rpbench -batch $(BATCH) -j 1         -timings -json BENCH_hotpath_after.json
	printf '{\n  "before": ' >  BENCH_hotpath.json
	cat BENCH_hotpath_before.json >> BENCH_hotpath.json
	printf ',\n  "after": ' >> BENCH_hotpath.json
	cat BENCH_hotpath_after.json  >> BENCH_hotpath.json
	printf '}\n' >> BENCH_hotpath.json
	rm -f BENCH_hotpath_before.json BENCH_hotpath_after.json

# Interpreter-path benchmark: the call-heavy program on the legacy,
# fast, and bytecode paths, written as one comparison record. Compare
# the speedup_vs_fastpath and allocs_per_run fields.
bench-bytecode:
	$(GO) run ./cmd/rpbench -interp-bench 300 -json BENCH_bytecode.json

# Promoter microbenchmark: core.PromoteFunction over one of the largest
# generated programs (gen0048 of the large corpus, seed 7), with
# allocations. Pinned to one CPU with cgo off so runs compare across
# commits.
bench-promote:
	GOMAXPROCS=1 CGO_ENABLED=0 $(GO) test -run '^$$' -bench '^BenchmarkPromoteFunction$$' -benchmem -benchtime 20x -count=1 ./internal/core/

# Whole-pipeline microbenchmark: pipeline.Run over gen0043 of the large
# corpus (seed 7), the gen-large-static program with the most
# instructions, in that workload's mode (static profile, no measurement,
# default workers), with allocations. Two CPUs, so the worker pool
# overlaps the largest function's chain with the others.
bench-pipeline:
	GOMAXPROCS=2 CGO_ENABLED=0 $(GO) test -run '^$$' -bench '^BenchmarkRunLargeStatic$$' -benchmem -benchtime 20x -count=1 ./internal/pipeline/

# One-iteration pass over every microbenchmark, as a compile-and-run
# smoke test for CI (benchmark numbers from one iteration mean nothing;
# the point is that the benchmarks keep working).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/source/ ./internal/cfg/ ./internal/ssa/ ./internal/interp/ ./internal/core/ ./internal/opt/ ./internal/pipeline/

# Pressure benchmark: the Table-3-style register-pressure record —
# baseline vs uncapped vs capped colors per routine, with the emitted
# IR re-colored as verification that no function exceeds
# max(cap, baseline).
bench-pressure:
	$(GO) run ./cmd/rpbench -pressure-bench -pressure-cap 8 -pressure-gen 8 -json BENCH_pressure.json

# CI smoke for the pressure path: suite only, no JSON artifact.
pressure-smoke:
	$(GO) run ./cmd/rpbench -pressure-bench -pressure-cap 8 -pressure-gen 0

# Serving smoke test: start rpserved on an ephemeral port, replay a
# small deterministic mix through rploadgen (which exits non-zero on
# zero throughput, any 5xx, or outcome divergence), then SIGTERM the
# server in the middle of a second, rate-paced load phase and require
# a clean drain (exit 0) with requests still in flight.
serve-smoke:
	$(GO) build -o bin/rpserved ./cmd/rpserved
	$(GO) build -o bin/rploadgen ./cmd/rploadgen
	rm -f bin/rpserved.port; \
	bin/rpserved -addr 127.0.0.1:0 -port-file bin/rpserved.port & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -f bin/rpserved.port ] && break; sleep 0.1; done; \
	[ -f bin/rpserved.port ] || { echo "rpserved never published its port"; kill $$pid 2>/dev/null; exit 1; }; \
	bin/rploadgen -addr "$$(cat bin/rpserved.port)" -n 64 -c 4 -unique 4 -size small || { kill $$pid 2>/dev/null; exit 1; }; \
	bin/rploadgen -addr "$$(cat bin/rpserved.port)" -n 400 -c 4 -qps 400 -unique 4 -size small >/dev/null 2>&1 & \
	lpid=$$!; \
	sleep 0.3; \
	kill -TERM $$pid; \
	wait $$pid || { echo "rpserved did not drain cleanly under load"; kill $$lpid 2>/dev/null; exit 1; }; \
	wait $$lpid 2>/dev/null; \
	echo "serve-smoke: clean drain under load"

# Serving benchmark: a larger replay mix against a local rpserved,
# recorded as BENCH_serve.json (p50/p95/p99 latency, throughput, cache
# hit rate).
bench-serve:
	$(GO) build -o bin/rpserved ./cmd/rpserved
	$(GO) build -o bin/rploadgen ./cmd/rploadgen
	rm -f bin/rpserved.port; \
	bin/rpserved -addr 127.0.0.1:0 -port-file bin/rpserved.port & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -f bin/rpserved.port ] && break; sleep 0.1; done; \
	[ -f bin/rpserved.port ] || { echo "rpserved never published its port"; kill $$pid 2>/dev/null; exit 1; }; \
	bin/rploadgen -addr "$$(cat bin/rpserved.port)" -n 512 -c 8 -unique 8 -size small -json BENCH_serve.json || { kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid

# Chaos drill: kill -9 mid-load and restart against the same cache dir
# (must come back warm with byte-identical outcomes), then serve through
# injected disk read/write/checksum faults (must degrade to
# recomputation — never a 5xx, never wrong bytes).
chaos-smoke:
	sh scripts/chaos_smoke.sh

# Cluster drill: rprouter + 2 replicas; a Zipf hot-key profile must
# produce collapsed singleflight waits through the router, a replica
# kill -9 mid-run must cost zero failed requests, and a SIGTERM under
# load must drain cleanly.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Cluster experiment: single node vs 4-replica consistent-hash cluster
# (steady and slot-bound capacity profiles), hedged vs unhedged tails
# over a degraded replica, and a kill -9 rebalance drill. Asserts the
# >=3x capacity scale-out, the p99 bound, and the hedging win; writes
# BENCH_cluster.json.
bench-cluster:
	sh scripts/bench_cluster.sh

ci: vet lint race test-par bench-smoke pressure-smoke fuzz-smoke oracle-smoke serve-smoke chaos-smoke cluster-smoke
