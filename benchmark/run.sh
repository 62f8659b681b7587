#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# driver's arguments: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
# The benchmark is a module of its own (benchmark/go.mod) that replaces the
# repository's module with the directory above it. The Go build cache,
# temporary files and the toolchain's own bookkeeping are kept under
# .bench_build so a run writes nothing outside the checkout; the first run
# pays for the compile, later ones find it cached.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOWORK=off
go build -C benchmark -o "$build/declbench" .
exec "$build/declbench" "$@"
