#!/usr/bin/env bash
# Builds the kprof benchmark from this checkout's sources and runs it.
#
#   bash kbench/run.sh --workload netrecv-drain --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache, binary, exported files).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/kbench" .) >&2
cd "$root"
exec "$out/kbench" "$@"
