#!/bin/bash
# The command BENCHMARK.json names: builds the benchmark from source inside the
# checkout and runs it with the arguments given. Everything the build and the
# run write — Go's build cache, its temporary files, its telemetry counters,
# the binary, the run's data — goes under .bench_build/.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: $PWD is not a checkout of the repository (no go.mod)" >&2
	exit 1
fi
mkdir -p .bench_build/gocache .bench_build/gotmp .bench_build/config
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp" \
	XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local
go build -o .bench_build/softborg-benchmark ./benchmark
exec .bench_build/softborg-benchmark -tmp .bench_build/tmp "$@"
