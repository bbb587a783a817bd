#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Run from the repository root; every argument is passed through, e.g.
#
#   bash servebench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, cached
# inputs, scratch files) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -dir "$out/servebench-data" "$@"
