#!/usr/bin/env bash
# Builds the fedbench benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash fedbench/run.sh --workload tcp-steady --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (the Go build cache and the binary) stays in
# .bench_build/ under the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd fedbench && go build -o "$out/fedbench" .)
exec "$out/fedbench" "$@"
