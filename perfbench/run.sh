#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload anon-ba20k --seed 3 --seconds 50 --trace 0
#
# Every build artefact and cache stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set), so the run writes nothing outside the
# checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE=$build/go-cache GOTMPDIR=$build/go-tmp GOPATH=$build/go-path
export GOMODCACHE=$build/go-path/pkg/mod GOFLAGS=-mod=readonly GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off CGO_ENABLED=0
export XDG_CONFIG_HOME=$build/config

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
