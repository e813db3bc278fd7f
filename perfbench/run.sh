#!/usr/bin/env bash
# Builds the kernel benchmark from the sources of this checkout and runs
# it, passing every argument through:
#
#   bash perfbench/run.sh --workload serve_dispatch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, the
# benchmark binary, store directories, span dumps) stays under
# .bench_build at the checkout root. Without the kernel's sources next to
# this directory the build fails and the script exits non-zero.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -dir "$build" "$@"
