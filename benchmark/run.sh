#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload local_serial --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# span files, result files) stays under .bench_build/ at the root of the
# checkout, so nothing outside the checkout is read or written.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
