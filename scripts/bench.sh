#!/usr/bin/env bash
# bench.sh — run the tier-1 micro-benchmarks with -benchmem and write the
# raw results as JSON artifacts. The BENCH_*.json files are git-ignored
# (CI uploads them as artifacts); the committed baseline that regressions
# are checked against is bench/baseline.json, through `go run ./bench
# compare` (see bench/README.md). This script writes:
#   BENCH_tensor.json    — kernel and training-step benchmarks, each kernel
#                          swept over a fixed 1/2/4/8 thread ladder
#   BENCH_comm.json      — mpi collective and Horovod engine benchmarks:
#                          ring allreduce over a 2/4/8 rank sweep and a
#                          16/64/256 KiB pipelining-segment sweep
#   BENCH_telemetry.json — engine step with the live publisher on vs off
#
# Usage:  scripts/bench.sh [benchtime]          (default 1s)
# Output: one JSON object per benchmark line: {name, ns_per_op,
#         allocs_per_op, bytes_per_op, extra metrics such as GFLOP/s and
#         img/s}.
set -euo pipefail

cd "$(dirname "$0")/.."
BENCHTIME="${1:-1s}"

# to_json RAW OUT — convert `go test -bench` lines into a JSON array.
# Fields appear as:  Name  N  value unit  value unit ...
to_json() {
    awk '
    /^Benchmark/ {
        printf "%s{\"name\":\"%s\",\"iterations\":%s", sep, $1, $2
        for (i = 3; i + 1 <= NF; i += 2) {
            unit = $(i + 1)
            gsub(/\//, "_per_", unit)
            gsub(/[^A-Za-z0-9_]/, "_", unit)
            printf ",\"%s\":%s", unit, $i
        }
        printf "}"
        sep = ",\n"
    }
    END { print "" }
    ' "$1" | { echo "["; cat; echo "]"; } >"$2"
    echo "wrote $2 ($(grep -c '"name"' "$2") entries)"
}

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== kernel benchmarks (internal/tensor) benchtime=$BENCHTIME"
go test ./internal/tensor/ -run '^$' -bench 'MatMul|Conv2D|BatchNorm|ReLU|MaxPool|Softmax|PoolRun' \
    -benchmem -benchtime "$BENCHTIME" | tee -a "$RAW"

echo "== training-step benchmark (internal/train)"
go test ./internal/train/ -run '^$' -bench 'ResNetBlockStep' \
    -benchmem -benchtime "$BENCHTIME" | tee -a "$RAW"

to_json "$RAW" BENCH_tensor.json

: >"$RAW"
echo "== collective benchmarks (internal/mpi)"
go test ./internal/mpi/ -run '^$' -bench 'RingAllreduce|RecursiveDoublingAllreduce|Bcast|Barrier|SendRecvLatency' \
    -benchmem -benchtime "$BENCHTIME" | tee -a "$RAW"

echo "== engine benchmark (internal/horovod)"
go test ./internal/horovod/ -run '^$' -bench 'EngineStep$' \
    -benchmem -benchtime "$BENCHTIME" | tee -a "$RAW"

to_json "$RAW" BENCH_comm.json

: >"$RAW"
echo "== live-observability benchmark (internal/horovod, publisher on vs off)"
go test ./internal/horovod/ -run '^$' -bench 'EngineStepPublish' \
    -benchmem -benchtime "$BENCHTIME" | tee -a "$RAW"

to_json "$RAW" BENCH_telemetry.json
