#!/usr/bin/env bash
# Builds elastibench from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/elastibench/run.sh --workload deep-queue --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every other file the toolchain writes
# stay under .bench_build/elastibench in the checkout.
set -euo pipefail

out="$PWD/.bench_build/elastibench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd cmd/elastibench && go build -o "$out/elastibench" .)
exec "$out/elastibench" "$@"
