#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it with the given
# arguments (see bench/README.md). Run it from anywhere; it works from the
# repository root and keeps the Go build cache, temporary files and the
# binary under .bench_build/ there, so it writes nothing outside the tree.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$build/netdimm-bench" .)
exec "$build/netdimm-bench" "$@"
