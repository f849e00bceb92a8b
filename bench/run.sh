#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing
# every argument through:
#
#   bash bench/run.sh --workload measure-small --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh trace --seed 1
#   bash bench/run.sh compare parent-out/ -- change-out/
#
# All build state (Go build cache, temporary files, the pcserved and
# pcfront binaries) stays inside the checkout under .bench_build/, so
# the benchmark reads and writes nothing outside it. No network is used.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" \
	XDG_CACHE_HOME="$build/cache" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
