#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload mem8 --seed 1 --seconds 20 --trace 0
# Run from the repository root. Every build artefact, Go cache and output
# file stays under the build directory inside the checkout
# ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/perfbench" "$build/go-tmp"

export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPATH=$build/go-path GOTMPDIR=$build/go-tmp
export XDG_CONFIG_HOME=$build/xdg-config XDG_CACHE_HOME=$build/xdg-cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

bin=$build/perfbench/perfbench
(cd "$root/perfbench" && go build -o "$bin" .)
exec "$bin" --out "$build/perfbench" "$@"
