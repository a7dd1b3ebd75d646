GO ?= go

.PHONY: build test vet lint lint-json race verify bench bench-blas \
	bench-blas-gate bench-campaign bench-campaign-check bench-campaign-gate \
	bench-campaign-smoke bench-factor bench-factor-check bench-select-smoke \
	cross-arm64 fuzz-smoke perfbench-check plan-golden-smoke profile results

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

# verify is the pre-commit gate: compile (which builds cocobench too), vet,
# the invariant analyzers, the race-enabled suite, a sub-second run of the
# campaign mode, the campaign and factorization-sweep identity checks, one
# pass of the factorization tile-selection benchmark, the golden tile-plan
# check, a short fuzz of the request path, the arm64 cross-compile (there
# is no native arm64 CI runner, so build+vet is that port's regression
# gate), and the build, vet and tests of the repository benchmark's module.
# The bench checks here compare exact fields only, so they pass at any host
# speed; timings are gated by the bench-*-gate targets.
verify: build vet lint race bench-campaign-smoke bench-campaign-check \
	bench-factor-check bench-select-smoke plan-golden-smoke fuzz-smoke \
	cross-arm64 perfbench-check

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# bench-blas measures the host GEMM and TRSM payload engine (blocked vs
# naive, serial and pooled) and writes the best call time per (routine,
# size) as JSON.
bench-blas:
	$(GO) run ./cmd/cocobench -out results/bench-blas.json

# BASE is the revision the bench-*-gate targets compare the working tree
# with; CI passes the pull request's base commit. gate-base builds cocobench
# at BASE from a git archive into results/gate/$(1).
BASE ?= HEAD
define gate-base
mkdir -p results/gate/$(1)
src=$$(mktemp -d) && trap 'rm -rf "$$src"' EXIT && \
	git archive $(BASE) | tar -x -C "$$src" && \
	$(GO) build -C "$$src" -o $(CURDIR)/results/gate/$(1)/cocobench-base ./cmd/cocobench
endef

# bench-blas-gate is the paired BLAS timing gate: cocobench -against runs the
# BASE build and the working tree alternately on this host and fails if any
# row's median best call is more than 1/0.85 times the base median (plus a
# 5 ms slack). Run after touching internal/blas kernels, packing or dispatch.
# The 2048 rows are skipped: the naive oracle at that size dominates a run's
# wall time without adding kernel coverage.
bench-blas-gate:
	$(call gate-base,blas)
	$(GO) run ./cmd/cocobench -sizes 256,512,1024 \
		-against results/gate/blas/cocobench-base -out results/gate/blas

# bench-campaign measures the discrete-event campaign pipeline itself
# (wall and phase seconds of a timing-only sweep) — the throughput the
# DES-core optimizations are judged by.
bench-campaign:
	$(GO) run ./cmd/cocobench -campaign -out results/bench-campaign.json

# bench-campaign-check re-runs the campaign once and fails if the event
# count or the plan build/replay counters of any row differ from the
# committed baseline (the sweep must stay byte-identical). Timings are
# printed, not gated. Refresh the baseline with bench-campaign when a change
# alters the simulation on purpose.
bench-campaign-check:
	$(GO) run ./cmd/cocobench -campaign -passes 1 -check results/bench-campaign.json

# bench-campaign-gate is the paired campaign timing gate: like
# bench-blas-gate, for the wall and phase seconds of every campaign row.
# Run after any change to the DES core, scheduler, or eval pipeline.
bench-campaign-gate:
	$(call gate-base,campaign)
	$(GO) run ./cmd/cocobench -campaign -passes 2 \
		-against results/gate/campaign/cocobench-base -out results/gate/campaign

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
# where the BLAS payloads run the portable Go micro-kernel, so the
# amd64-only kernel files and their build tags are checked to stay out of
# that build on hosts without arm64 hardware or emulation.
cross-arm64:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...

# plan-golden-smoke pins the tile-operation IR: the golden plan dumps in
# internal/plan must stay byte-identical, since every scheduler entry point
# replays these plans. Sub-second by construction (tiny shapes, no sim).
plan-golden-smoke:
	$(GO) test -run 'TestGoldenPlans' -count=1 ./internal/plan

# fuzz-smoke fuzzes the scheduler's request path (every routine through
# Plan and Enqueue) for ten seconds, and its backed replay (real data,
# checked against a host reference) for ten more, beyond the seed corpus,
# which plain go test already runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPlan$$' -fuzztime 10s ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzPlanBacked$$' -fuzztime 10s ./internal/sched

# perfbench-check builds, vets and tests the repository benchmark
# (perfbench/_src, its own module over this one), so a change to a name it
# pins (sched.Context.PlanGemm and the EnqueueWith forwards, plan.Plan.Ops,
# eval.Runner) fails here rather than only when the benchmark runs. It
# writes nothing under perfbench/: the binary goes to /dev/null.
perfbench-check:
	$(GO) build -C perfbench/_src -o /dev/null .
	$(GO) vet -C perfbench/_src ./...
	$(GO) test -C perfbench/_src ./...

# profile captures a CPU profile of the campaign sweep for pprof:
#   go tool pprof -top results/campaign.pprof
profile:
	$(GO) run ./cmd/cocobench -campaign -cpuprofile results/campaign.pprof \
		-out results/bench-campaign.json

results: build
	$(GO) run ./cmd/cocodeploy -out results
	$(GO) run ./cmd/cocoeval -deploy results -out results
