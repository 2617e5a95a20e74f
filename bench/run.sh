#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload serve-miss --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh                      # all four workloads, one child each
#   bash bench/run.sh compare -base a.jsonl -new b.jsonl
#
# The binary, the Go build and module caches, the Go configuration
# directory and every temporary file (runner caches, portfiles, spill
# runs) stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/cachesync-bench" .
exec "$out/cachesync-bench" "$@"
