#!/usr/bin/env bash
# Builds tdserve and the benchmark program from this checkout's sources, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload td-cold --seed 1 --seconds 10 --trace 0
#
# Every build product and scratch file goes under .bench_build/ (or
# $CARGO_TARGET_DIR when set), including Go's build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/tdserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/tdserve and perfbench/ are needed)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$out/tdserve" ./cmd/tdserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -tdserve "$out/tdserve" -work "$out/work" "$@"
