#!/usr/bin/env bash
# Builds nyquistd and the benchmark from this source tree, then runs one
# benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-deep --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes (Go build cache included) stays under
# .bench_build in the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/nyquistd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/nyquistd and perfbench/)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/nyquistd" ./cmd/nyquistd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -bin "$build/nyquistd" -build-dir "$build" "$@"
