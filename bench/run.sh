#!/usr/bin/env bash
# Builds meshbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload sort --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1            # all four workloads
#
# Everything the build and the run write (the binary, the Go build cache,
# temporary files, journals, span files) stays under .bench_build/ in the
# current directory. Without the rest of the repository next to bench/,
# the build fails and so does this script.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$out/bin/meshbench" ./meshbench)
exec "$out/bin/meshbench" "$@"
