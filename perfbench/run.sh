#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root; every build artifact stays under
# .bench_build/ and run records go to perfbench/out/.
#
#   bash perfbench/run.sh --workload suite-train --seed 1 --seconds 10 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
