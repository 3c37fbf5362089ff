#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command. Builds the benchmark from the
# checkout's source, keeping every build output inside the checkout
# (.bench_build/), and runs it with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local
go build -C benchmark -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
