#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload churn-c4-n8 --seed 2006 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root: go.mod or e2ebench/go.mod is missing" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

go -C "$root/e2ebench" build -o "$build/e2ebench" . >&2
exec "$build/e2ebench" "$@"
