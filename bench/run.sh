#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build writes (Go build cache, binary)
# goes to .bench_build at the root of the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build=$PWD/../.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off
export XDG_CONFIG_HOME=$build/config # where the go command keeps its own counters
go build -o "$build/oasis-bench" . >&2
exec "$build/oasis-bench" "$@"
