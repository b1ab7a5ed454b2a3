#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# run from, then runs it with the given flags:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 25 --trace 0
#
# Every build output, input file, result and trace stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -root "$root" "$@"
