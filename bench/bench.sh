#!/bin/sh
# The command BENCHMARK.json names. Builds the benchmark from source inside
# the checkout (build cache included, under .bench_build/), then runs it with
# the arguments given: --workload NAME --seed N --seconds S --trace 0|1.
# Run from the root of a checkout: sh bench/bench.sh --workload oltp-mixed --seed 1 --seconds 10 --trace 0
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
# go build decides by itself whether anything is stale; warm, it takes well
# under a second and none of it is inside a reported metric
(
	cd "$here"
	HOME=$build/home GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod \
		GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$build/bench" .
)
exec "$build/bench" "$@"
