#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ inside the
# checkout and runs it with the given flags. Everything the Go toolchain
# writes (build cache, temporaries) stays inside the checkout too.
#
#   bash bench/run.sh --workload lookup-zipf --seed 1 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off

# The harness imports cosmo/internal/...: without the module it measures
# there is nothing to build, and the run fails here.
if [[ ! -f "$root/go.mod" ]]; then
	echo "bench/run.sh: $root/go.mod not found: the benchmark builds against the cosmo module" >&2
	exit 1
fi

(cd "$here" && go build -o "$build/cosmo-bench" .)
cd "$root"
exec "$build/cosmo-bench" "$@"
