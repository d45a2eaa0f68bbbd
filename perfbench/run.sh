#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve_bin --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build, its caches and every file
# the benchmark writes stay under .bench_build/ in that directory; the
# build never reaches for the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
