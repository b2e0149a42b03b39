# Tier-1 verification and benchmark targets. `make ci` is what the CI
# workflow runs: build, vet, unit tests, and the race suite over the
# packages with concurrent hot paths (arena, executor, worker pool, mpi
# transports, Horovod engine, and the job fleet's rank fan-out that the
# scenario harness drives).

GO ?= go
RACE_PKGS = ./internal/tensor/... ./internal/graph/... ./internal/mpi/... ./internal/horovod/... ./internal/train/... ./internal/job/... ./internal/scenario/...

FUZZ_PKGS = ./internal/mpi/ ./internal/horovod/ ./internal/train/
FUZZTIME ?= 10s

.PHONY: build test vet race bench fuzz scenarios regrow-demo dnnsched-smoke analyze-smoke ci

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race $(RACE_PKGS)

# bench writes BENCH_tensor.json (kernel + training-step benchmarks) and
# BENCH_comm.json (collective + engine benchmarks), both with -benchmem.
# BENCHTIME=3s make bench for steadier numbers.
bench:
	scripts/bench.sh $(or $(BENCHTIME),1s)

# fuzz runs every Fuzz target for FUZZTIME each — the same smoke CI runs.
# Wire parsers and the checkpoint loader must never panic on hostile bytes.
fuzz:
	@for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# scenarios runs the shipped chaos-scenario library end to end: elastic
# kill/partition recovery, straggler detection, seeded fault soaks. Every
# scenario is deterministic from its seed; a FAIL here is replayable with
# `go run ./cmd/dnnperf scenario run scenarios/<name>.yaml`. Each run's
# report — verdicts plus the replayable event log — lands in
# scenario-reports/.
scenarios: build
	$(GO) run ./cmd/dnnperf scenario run -q -out scenario-reports scenarios/*.yaml

# regrow-demo runs the whole elastic lifecycle across real OS processes
# (examples/jobs/regrow.yaml): a 4-rank TCP job loses rank 2 after step 3,
# the surviving majority shrinks and keeps training, the launcher
# relaunches the dead rank, and the leader readmits it at a step boundary
# — the job ends back at 4 ranks with bit-identical weights (exit code 3 =
# recovered). Built to a real binary first: `go run` collapses the worker
# exit codes to 1.
regrow-demo: build
	$(GO) build -o bin/mpirun ./cmd/mpirun
	bin/mpirun -job examples/jobs/regrow.yaml; test $$? -eq 3

# dnnsched-smoke drives the multi-tenant control plane end to end: a
# 200-job / 3-tenant synthetic stream gang-scheduled on the discrete-event
# clock — run twice, and the two JSON reports must be byte-identical (the
# replay contract; the binary itself fails on gang deadlocks, failed jobs,
# or a non-monotone utilization curve) — then the real 2-job in-process
# preemption round trip under the race detector: a low-priority elastic
# job is halted cooperatively, checkpoints, parks, regrows after the
# high-priority job finishes, and ends bit-identical to an undisturbed run.
dnnsched-smoke: build
	$(GO) build -o bin/dnnsched ./cmd/dnnsched
	bin/dnnsched -synth 200 -tenants 3 -seed 7 -report dnnsched-report.json
	bin/dnnsched -synth 200 -tenants 3 -seed 7 -q -report dnnsched-report-replay.json
	cmp dnnsched-report.json dnnsched-report-replay.json
	$(GO) test -race -run TestRealPreemptionRoundTrip -count=1 ./internal/job/

# analyze-smoke drives the post-mortem attribution pipeline end to end on
# real runs: a clean 4-rank TCP job and an elastic crash-recovery job (rank
# 2 dies after step 3, survivors shrink and finish; exit 3 = recovered)
# both write merged traces, `dnnperf analyze` attributes each, and the gate
# demands the decomposition account for >= 95% of aggregate wall time.
# Artifacts (traces, metrics, reports, flight-recorder dumps) land in
# analyze-out/.
analyze-smoke: build
	$(GO) build -o bin/mpirun ./cmd/mpirun
	$(GO) build -o bin/dnnperf ./cmd/dnnperf
	mkdir -p analyze-out
	bin/mpirun -job examples/jobs/dp4.yaml \
		-trace analyze-out/trace.json -metrics analyze-out/metrics.json
	bin/dnnperf analyze -trace analyze-out/trace.json \
		-metrics analyze-out/metrics.json -json analyze-out/report.json
	bin/mpirun -job examples/jobs/elastic_crash.yaml \
		-trace analyze-out/chaos-trace.json -metrics analyze-out/chaos-metrics.json; \
		test $$? -eq 3
	bin/dnnperf analyze -trace analyze-out/chaos-trace.json \
		-metrics analyze-out/chaos-metrics.json -json analyze-out/chaos-report.json
	scripts/check_analyze.sh analyze-out/report.json 950
	scripts/check_analyze.sh analyze-out/chaos-report.json 950

ci: build vet test race
