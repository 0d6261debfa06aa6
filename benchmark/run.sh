#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from the root with the arguments given. The go build and
# module caches, go's temporary files and its configuration directory (where
# the toolchain keeps its telemetry counters) are inside .bench_build/ too, so
# a run writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -buildvcs=false -o "$build/mlite-benchmark" . >&2
cd "$root"
exec "$build/mlite-benchmark" "$@"
