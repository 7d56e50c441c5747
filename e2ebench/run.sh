#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload ingest-cont --seed 1 --seconds 25 --trace 0
#
# The build, the Go caches and the run's journals and span files stay under
# .bench_build/ in the repository root.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"

go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
