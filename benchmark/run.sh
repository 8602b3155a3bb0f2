#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Everything the build and the run leave behind — the Go
# build cache, the binary, temporary files — stays under .bench_build in
# that checkout. People can just `go run ./benchmark`; this wrapper is the
# command BENCHMARK.json names, for a driver that wants nothing written
# outside the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/benchmark/main.go" ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOFLAGS=-buildvcs=false GOTOOLCHAIN=local TMPDIR=$build/tmp
go build -o "$build/sod2-benchmark" ./benchmark
exec "$build/sod2-benchmark" "$@"
