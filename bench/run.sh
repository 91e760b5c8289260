#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout (the
# build cache too, so nothing is written outside the checkout) and runs it
# with the arguments given. bench/ is a module of its own: it is built from
# there, and the repository's packages come in through its replace directive.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -buildvcs=false -o "$build/bench" .
exec "$build/bench" -out "$root/bench/out" "$@"
