#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, for example:
#
#   bash perfbench/run.sh --workload tap-replay --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. The build cache, the binary and
# the benchmark's scratch files all stay inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
