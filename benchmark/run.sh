#!/usr/bin/env bash
# Builds the benchmark into the checkout's .bench_build/ and runs it with
# the arguments given. Nothing is read or written outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -buildvcs=false -o "$build/camus-benchmark" .
exec "$build/camus-benchmark" "$@"
