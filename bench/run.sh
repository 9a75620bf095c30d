#!/bin/sh
# The benchmark's one command. Builds l2bmd and the bench binary from source
# into .bench_build/ (Go's caches included, so nothing is written outside
# the checkout), then runs bench with the arguments given:
#
#   sh bench/run.sh -seed 1                 all six workloads
#   sh bench/run.sh -seed 1 -trace 1        ... plus the traced pass
#   sh bench/run.sh --workload fig7_packet --seed 1 --seconds 10 --trace 0
#   sh bench/run.sh -compare A.json B.json
#
# Run it from the repository root.
set -eu

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off

go build -o "$build/l2bmd" ./cmd/l2bmd
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" -l2bmd "$build/l2bmd" "$@"
