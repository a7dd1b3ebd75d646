GO ?= go

.PHONY: build test vet lint lint-json race verify bench bench-blas \
	bench-blas-check bench-blas-smoke bench-campaign bench-campaign-check \
	bench-campaign-gate bench-campaign-smoke bench-factor bench-factor-check bench-select-smoke \
	cross-arm64 fuzz-smoke plan-golden-smoke profile results

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the project's invariant analyzers (determinism, maporder,
# outputpurity, goroutines, layering, floatorder, hotpath — see DESIGN.md
# "Enforced invariants") via go run, so the check needs no installed
# binaries.
lint:
	$(GO) run ./cmd/cocolint ./...

# lint-json writes the same findings machine-readably for CI artifact
# diffing; the run summary stays on stderr so the file is pure JSON.
lint-json:
	@mkdir -p results
	$(GO) run ./cmd/cocolint -json ./... > results/lint.json

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the eval and
# microbench packages exercise the parallel campaign engine, so this is
# the concurrency regression gate.
race:
	$(GO) test -race ./...

# verify is the pre-commit gate: compile, vet, the invariant analyzers,
# the race-enabled suite, the build-only benchmark smoke, a sub-second
# run of the campaign-throughput mode, the factorization-sweep identity
# gate, one pass of the factorization tile-selection benchmark, the golden
# tile-plan check, a short fuzz of the request path, and the arm64
# cross-compile (the NEON kernels have no native CI runner, so
# assemble+vet is their regression gate).
verify: build vet lint race bench-blas-smoke bench-campaign-smoke \
	bench-factor-check bench-select-smoke plan-golden-smoke fuzz-smoke \
	cross-arm64

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# bench-blas measures the host GEMM payload engine (blocked vs naive,
# serial and pooled) and writes GFLOP/s per (routine, size) as JSON.
bench-blas:
	$(GO) run ./cmd/cocobench -out results/bench-blas.json

# bench-blas-check re-measures the kernel sweep at the fast sizes and
# fails if any (routine, size) row drops below 85% of the committed
# baseline GFLOP/s. Run after touching internal/blas kernels, packing or
# dispatch; refresh the baseline with bench-blas when a slowdown is
# intentional. The 2048 rows are skipped: the naive oracle at that size
# dominates a check run's wall time without adding kernel coverage.
bench-blas-check:
	$(GO) run ./cmd/cocobench -sizes 256,512,1024 -check results/bench-blas.json

# bench-blas-smoke is the verify-time gate for the benchmark tool: it
# must keep compiling, but verify should not spend minutes measuring.
bench-blas-smoke:
	$(GO) build -o /dev/null ./cmd/cocobench

# bench-campaign measures the discrete-event campaign pipeline itself
# (cells/sec, events/sec on a timing-only sweep) — the throughput number
# the DES-core optimizations are judged by.
bench-campaign:
	$(GO) run ./cmd/cocobench -campaign -out results/bench-campaign.json

# bench-campaign-check re-runs the reference campaign and fails if the
# event count or the plan build/replay counters drift from the committed
# baseline (the sweep must stay byte-identical) or if a phase of the
# reference row runs more than 20% slower than the baseline's. Run after any
# change to the DES core, scheduler, or eval pipeline; refresh the baseline
# with bench-campaign when a slowdown is intentional.
bench-campaign-check:
	$(GO) run ./cmd/cocobench -campaign -check results/bench-campaign.json

# bench-campaign-gate is the throughput gate: it builds cocobench at
# BASE (default HEAD) and from the working tree and runs the campaign on
# both, interleaved, five times each on the same host. It fails if the working
# tree's median reference cells/s is below 0.85x the base median; counter
# identity is bench-campaign-check's job. CI passes the pull request's base
# commit.
BASE ?= HEAD
bench-campaign-gate:
	bash scripts/campaign-gate.sh $(BASE)

# bench-campaign-smoke runs the campaign mode on a tiny work-list (one
# size, one library) so verify exercises the whole DES pipeline in well
# under a second without keeping an output file.
bench-campaign-smoke:
	$(GO) run ./cmd/cocobench -campaign -smoke -out /dev/null

# bench-factor sweeps the tiled factorization planners (cholesky, lu,
# trsm over the task-graph IR) and records each cell's simulated makespan,
# kernel count and traffic. Refresh the baseline with this target when a
# planner change is intentional.
bench-factor:
	$(GO) run ./cmd/cocobench -factor -out results/bench-factor.json

# bench-factor-check re-runs the factorization sweep and fails on ANY
# drift from the committed baseline — the simulated fields are exact, so
# this is a byte-identity gate on the task-graph planners and their
# replay, not a tolerance check. Sub-second (timing-only simulation).
bench-factor-check:
	$(GO) run ./cmd/cocobench -factor -check results/bench-factor.json

# bench-select-smoke runs BenchmarkSelectFactorTile once (cold: a fresh
# session's candidate-plan search; warm: a selection-cache hit) so verify
# keeps the factorization selection path exercised and timed.
bench-select-smoke:
	$(GO) test -run '^$$' -bench SelectFactorTile -benchtime 1x .

# cross-arm64 cross-compiles and vets the whole module for linux/arm64,
# gating the NEON micro-kernels (gemm_arm64.s) and their build-tagged
# registration on hosts without arm64 hardware or emulation.
cross-arm64:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...

# plan-golden-smoke pins the tile-operation IR: the golden plan dumps in
# internal/plan must stay byte-identical, since every scheduler entry point
# replays these plans. Sub-second by construction (tiny shapes, no sim).
plan-golden-smoke:
	$(GO) test -run 'TestGoldenPlans' -count=1 ./internal/plan

# fuzz-smoke fuzzes the scheduler's request path (every routine through
# Plan and Enqueue) for ten seconds beyond the seed corpus, which plain
# go test already runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPlan$$' -fuzztime 10s ./internal/sched

# profile captures a CPU profile of the campaign sweep for pprof:
#   go tool pprof -top results/campaign.pprof
profile:
	$(GO) run ./cmd/cocobench -campaign -cpuprofile results/campaign.pprof \
		-out results/bench-campaign.json

results: build
	$(GO) run ./cmd/cocodeploy -out results
	$(GO) run ./cmd/cocoeval -deploy results -out results
