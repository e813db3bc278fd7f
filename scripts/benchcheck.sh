#!/bin/sh
# benchcheck.sh — dispatch-performance regression gate (opt-in:
# BENCHCHECK=1 make verify, or run directly). Two passes:
#
#   1. the newest committed BENCH_*.json must satisfy the gate — the
#      recorded perf trajectory never regresses silently;
#   2. a fresh paperbench -json measurement on this host must too —
#      the current tree still delivers a compiled backend that beats
#      the interpreter on every shape.
#
# The fresh pass uses a relaxed speedup floor (host wall-clock on a
# loaded or frequency-scaled machine is noisy; the per-shape
# compiled-not-slower-than-interp ordering is the hard invariant).
set -eu
cd "$(dirname "$0")/.."

MIN_SPEEDUP_COMMITTED=${MIN_SPEEDUP_COMMITTED:-5.0}
MIN_SPEEDUP_FRESH=${MIN_SPEEDUP_FRESH:-2.0}
# Always-on profiling overhead ceilings (percent of unprofiled
# compiled throughput, schema ≥ 3 reports): the committed baseline
# holds the documented 15% budget; the fresh pass gets headroom for
# host noise.
MAX_PROF_OVERHEAD_COMMITTED=${MAX_PROF_OVERHEAD_COMMITTED:-15.0}
MAX_PROF_OVERHEAD_FRESH=${MAX_PROF_OVERHEAD_FRESH:-30.0}
# Multi-goroutine scaling floors (schema ≥ 4 reports): benchcheck caps
# the effective floor at 85% of min(goroutines, report's gomaxprocs),
# so 3.0 demands real parallelism on wide hosts and degrades to the
# no-lock-convoy check (~0.85) on single-core runners.
MIN_PARALLEL_COMMITTED=${MIN_PARALLEL_COMMITTED:-3.0}
MIN_PARALLEL_FRESH=${MIN_PARALLEL_FRESH:-3.0}
# Sliding-window recorder overhead ceilings (percent of the
# plain-recorder observed posture's throughput, schema ≥ 5 reports):
# the window layer is a handful of atomics per observation, so the
# committed baseline holds a tight budget; the fresh pass gets
# headroom for host noise.
MAX_WINDOW_OVERHEAD_COMMITTED=${MAX_WINDOW_OVERHEAD_COMMITTED:-20.0}
MAX_WINDOW_OVERHEAD_FRESH=${MAX_WINDOW_OVERHEAD_FRESH:-35.0}
# Verified-recovery floors (schema ≥ 6 reports): warm journal replay
# (content-addressed proof cache) over cold replay. The measured ratio
# is ~40x; 5.0 is the point below which the proof cache has stopped
# doing its job during reboot.
MIN_WARM_RECOVERY_COMMITTED=${MIN_WARM_RECOVERY_COMMITTED:-5.0}
MIN_WARM_RECOVERY_FRESH=${MIN_WARM_RECOVERY_FRESH:-5.0}
# Serve-posture observer overhead ceilings (percent of compiled+plain
# throughput lost by compiled+prof+obs+win, schema ≥ 5 reports): what
# `pccmon -serve` pays for profiling, the windowed recorder and the
# flight recorder together, down from ~70% before filter-major
# dispatch. Quiet-host runs read 7–15% while uninstrumented dispatch
# was still filter-major; going packet-major made compiled+plain, the
# denominator, faster, so the committed ceiling is 20%. The fresh pass
# gets headroom for host noise: one best-of-three row on a busy host
# moves by up to ±30%.
MAX_OBSERVER_OVERHEAD_COMMITTED=${MAX_OBSERVER_OVERHEAD_COMMITTED:-20.0}
MAX_OBSERVER_OVERHEAD_FRESH=${MAX_OBSERVER_OVERHEAD_FRESH:-35.0}

echo '== benchcheck: committed baseline'
committed=$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1 || true)
if [ -z "$committed" ]; then
	echo "benchcheck: no committed BENCH_*.json baseline" >&2
	exit 1
fi
go run ./cmd/benchcheck -min-speedup "$MIN_SPEEDUP_COMMITTED" \
	-max-profiling-overhead "$MAX_PROF_OVERHEAD_COMMITTED" \
	-min-parallel-speedup "$MIN_PARALLEL_COMMITTED" \
	-max-window-overhead "$MAX_WINDOW_OVERHEAD_COMMITTED" \
	-min-warm-recovery-speedup "$MIN_WARM_RECOVERY_COMMITTED" \
	-max-observer-overhead "$MAX_OBSERVER_OVERHEAD_COMMITTED" "$committed"

echo '== benchcheck: fresh measurement (paperbench -json, 20k packets)'
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/paperbench" ./cmd/paperbench
go build -o "$tmp/benchcheck" ./cmd/benchcheck
(cd "$tmp" && ./paperbench -json -packets 20000 &&
	./benchcheck -min-speedup "$MIN_SPEEDUP_FRESH" \
		-max-profiling-overhead "$MAX_PROF_OVERHEAD_FRESH" \
		-min-parallel-speedup "$MIN_PARALLEL_FRESH" \
		-max-window-overhead "$MAX_WINDOW_OVERHEAD_FRESH" \
		-min-warm-recovery-speedup "$MIN_WARM_RECOVERY_FRESH" \
		-max-observer-overhead "$MAX_OBSERVER_OVERHEAD_FRESH")

echo 'benchcheck: OK'
