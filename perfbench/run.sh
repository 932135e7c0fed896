#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload oltp --seed 1 --seconds 20 --trace 0
#
# The Go build cache, GOPATH and the Go tool's configuration directory, the
# binary and the run's files all stay under .bench_build/ in the checkout;
# no toolchain or module is fetched.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
bin="$out/perfbench-bin"
go build -C perfbench -o "$bin.$$" .
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
