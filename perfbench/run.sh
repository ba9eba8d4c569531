#!/usr/bin/env bash
# Builds the timingc server and the benchmark from this checkout, then
# runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload sleep-run --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything it builds, caches
# and writes stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$build/bin"

if [[ -z "${PERFBENCH_COMMIT:-}" ]] && git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD)
	export PERFBENCH_COMMIT
fi

go build -o "$build/bin/timingc" ./cmd/timingc
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin/timingc" -out "$build/perfbench" "$@"
