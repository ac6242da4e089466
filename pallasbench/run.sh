#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash pallasbench/run.sh --workload corpus-batch --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, spans of traced runs)
# stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/pallasbench/go.mod" ]; then
	echo "pallasbench: run from the repository root (the pallas module is not here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off

go -C "$root/pallasbench" build -o "$out/pallasbench" .
exec "$out/pallasbench" "$@"
