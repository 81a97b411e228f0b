#!/usr/bin/env bash
# Builds perfbench from the checkout's sources into .bench_build and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload dse-cold --seed 1 --seconds 10 --trace 0
#
# Every build product stays inside the checkout: the Go build cache goes to
# .bench_build, the module cache is unused (vtrain has no dependencies), and
# no toolchain or module download is attempted.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
