#!/usr/bin/env bash
# Builds the service benchmark from source and runs it.
#
# Usage, from the repository root:
#
#	bash perfbench/run.sh --workload solve-warm --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain would write under the home directory (build
# cache, module cache, telemetry, go env) is kept under .bench_build/ in the
# repository root, so a run reads and writes nothing outside the checkout.
# The benchmark module replaces the service module with the parent
# directory; in a directory holding only the benchmark the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

bin="$build/perfbench.bin"
(cd "$root/perfbench" && go build -o "$bin" .) >&2
exec "$bin" "$@"
