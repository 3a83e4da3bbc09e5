#!/usr/bin/env bash
# Builds the OXII benchmark from this checkout's sources and runs it.
#
#   bash oxiibench/run.sh --workload signed --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and Go's
# temporary files live under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory, so nothing outside the checkout is written. Without
# the repository's sources next to this directory the build fails and the
# script exits nonzero without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd "$root/oxiibench" && go build -o "$out/oxiibench" .)
exec "$out/oxiibench" "$@"
