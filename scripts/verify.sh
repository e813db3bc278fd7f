#!/bin/sh
# verify.sh — the one entry point future PRs run before shipping:
# build, vet, gofmt over the tracked Go files, the full test suite under the race detector (the
# concurrent validation pipeline must stay -race clean), a smoke pass
# over the seed fuzz corpora, and a telemetry smoke that checks the
# metrics exposition contract pccmon -telemetry promises.
set -eu
cd "$(dirname "$0")/.."

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

# Only tracked files: build outputs such as .bench_build/ hold Go
# sources of their own (module cache) that are not ours to format.
echo '== gofmt -l (tracked Go files)'
files=$(git ls-files '*.go')
unformatted=$(gofmt -l $files)
if [ -n "$unformatted" ]; then
	echo "gofmt: not formatted:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# The telemetry, kernel, and machine packages lean on sync/atomic and
# carry lock-free invariants (the profiler hot path merges pooled
# scratch profiles into per-filter atomic accumulators); run the
# atomic and copylocks analyzers on them explicitly (the shadow
# analyzer lives in an external module, so it is not part of this
# gate).
echo '== go vet -atomic -copylocks (telemetry, kernel, machine)'
go vet -atomic -copylocks ./internal/telemetry/ ./internal/kernel/ ./internal/machine/

echo '== go test -race ./...'
go test -race ./...

# The kernel's dispatch path is lock-free (epoch-pinned snapshot
# reads, per-shard counters); rerun its suite under the race detector
# at 1 and 4 schedulers so the torn-snapshot and reclamation tests see
# both a serialized and a genuinely parallel interleaving.
echo '== go test -race -cpu=1,4 ./internal/kernel/'
go test -race -cpu=1,4 ./internal/kernel/

echo '== fuzz corpora smoke (seed corpora replay)'
go test -run=Fuzz ./...

# Engage the native fuzzing engine briefly on the two untrusted-input
# parsers and on the backend-differential target (random programs
# through interpreter and compiled backend must agree; one package per
# -fuzz invocation; -run='^$' skips the unit tests already covered
# above).
echo '== native fuzz smoke (5s per target)'
go test -fuzz=FuzzDecodeBinary -fuzztime=5s -run='^$' ./internal/pccbin/
go test -fuzz=FuzzLFParse -fuzztime=5s -run='^$' ./internal/lf/
go test -fuzz=FuzzCompiledDispatch -fuzztime=5s -run='^$' ./internal/machine/

echo '== telemetry smoke (pccmon -telemetry exposition contract)'
out=$(go run ./cmd/pccmon -packets 2000 -telemetry)
for metric in \
	pcc_install_installed_total \
	pcc_install_rejected_total \
	pcc_cache_hits_total \
	pcc_cache_misses_total \
	pcc_cache_evictions_total \
	pcc_packets_total \
	pcc_filters_installed \
	pcc_dispatch_demotions_total \
	pcc_stage_vcgen_seconds_count \
	pcc_stage_lfcheck_seconds_count \
	pcc_stage_wcet_seconds_count \
	pcc_stage_commit_seconds_count \
	pcc_stage_dispatch_seconds_count \
	pcc_trace_events_total \
	pcc_trace_dropped_total
do
	if ! printf '%s' "$out" | grep -q "$metric"; then
		echo "telemetry smoke: missing metric $metric" >&2
		exit 1
	fi
done

echo '== serve smoke (pccmon -serve endpoints)'
go build -o /tmp/pccmon.verify ./cmd/pccmon
/tmp/pccmon.verify -serve 127.0.0.1:16996 -pps 500 -audit-out /tmp/pccmon.audit.jsonl &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
# Wait for the listener, then hit the surfaces.
ok=
for _ in $(seq 1 50); do
	if curl -fsS http://127.0.0.1:16996/healthz >/dev/null 2>&1; then
		ok=1
		break
	fi
	sleep 0.1
done
if [ -z "$ok" ]; then
	echo "serve smoke: /healthz never came up" >&2
	exit 1
fi
curl -fsS http://127.0.0.1:16996/metrics | grep -c pcc_filter_cycles_total >/dev/null ||
	{ echo "serve smoke: /metrics missing per-filter cycles" >&2; exit 1; }
curl -fsS http://127.0.0.1:16996/metrics | grep -c pcc_quarantined_owners >/dev/null ||
	{ echo "serve smoke: /metrics missing quarantine gauge" >&2; exit 1; }
curl -fsS http://127.0.0.1:16996/metrics | grep -q '^pcc_dispatch_demotions_total 0$' ||
	{ echo "serve smoke: /metrics missing the demotions counter at 0" >&2; exit 1; }
curl -fsS http://127.0.0.1:16996/debug/vars | grep -c quarantined >/dev/null ||
	{ echo "serve smoke: /debug/vars missing quarantined set" >&2; exit 1; }
curl -fsS 'http://127.0.0.1:16996/profile/Filter%201' | grep -c RET >/dev/null ||
	{ echo "serve smoke: /profile/Filter 1 has no listing" >&2; exit 1; }
curl -fsS http://127.0.0.1:16996/debug/vars | grep -c traffic_packets >/dev/null ||
	{ echo "serve smoke: /debug/vars missing traffic counters" >&2; exit 1; }
# Always-on hot-path observability: the batch dispatcher feeds the
# per-owner latency family with log-scale sub-µs buckets, and the
# flight recorder serves its anomaly ring (at minimum the boot config
# changes) as JSON.
curl -fsS http://127.0.0.1:16996/metrics | grep -c pcc_filter_run_seconds_bucket >/dev/null ||
	{ echo "serve smoke: /metrics missing per-filter latency family" >&2; exit 1; }
curl -fsS http://127.0.0.1:16996/metrics | grep -c 'pcc_stage_dispatch_batch_seconds_bucket{le="5e-08"' >/dev/null ||
	{ echo "serve smoke: /metrics dispatch-batch histogram has no sub-µs buckets" >&2; exit 1; }
curl -fsS http://127.0.0.1:16996/debug/flightrecorder | grep -c '"events"' >/dev/null ||
	{ echo "serve smoke: /debug/flightrecorder serves no events document" >&2; exit 1; }
curl -fsS http://127.0.0.1:16996/debug/flightrecorder | grep -c config_change >/dev/null ||
	{ echo "serve smoke: flight recorder missing boot config changes" >&2; exit 1; }
# Graceful shutdown: SIGTERM must end the process with exit 0.
kill "$serve_pid"
if ! wait "$serve_pid"; then
	echo "serve smoke: pccmon -serve did not exit cleanly" >&2
	exit 1
fi
trap - EXIT
grep -q '"event":"install"' /tmp/pccmon.audit.jsonl ||
	{ echo "serve smoke: audit log recorded no installs" >&2; exit 1; }
grep -q '"event":"config"' /tmp/pccmon.audit.jsonl ||
	{ echo "serve smoke: audit log recorded no config changes" >&2; exit 1; }
rm -f /tmp/pccmon.audit.jsonl

# Multi-tenant serve smoke: two isolated kernels behind one listener,
# per-tenant routing under /t/{name}/, the /tenants index, the legacy
# bare paths still serving the default tenant, and per-tenant packet
# accounting that reconciles (the pump counts a batch only after the
# kernel delivered it, so kernel packets ≥ traffic packets, per
# tenant).
echo '== multi-tenant serve smoke (pccmon -serve -tenants alpha,beta)'
/tmp/pccmon.verify -serve 127.0.0.1:16997 -pps 500 -tenants alpha,beta \
	-audit-out /tmp/pccmon.mt.audit.jsonl &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
ok=
for _ in $(seq 1 50); do
	if curl -fsS http://127.0.0.1:16997/healthz >/dev/null 2>&1; then
		ok=1
		break
	fi
	sleep 0.1
done
[ -n "$ok" ] || { echo "multi-tenant smoke: /healthz never came up" >&2; exit 1; }
curl -fsS http://127.0.0.1:16997/tenants | grep -q '"default": "alpha"' ||
	{ echo "multi-tenant smoke: /tenants missing the default marker" >&2; exit 1; }
curl -fsS http://127.0.0.1:16997/tenants | grep -q '"/t/beta/"' ||
	{ echo "multi-tenant smoke: /tenants missing beta's prefix" >&2; exit 1; }
# Wait for both pumps to move traffic, then reconcile alpha's counters
# from one /t/alpha/debug/vars document.
tp=0
for _ in $(seq 1 50); do
	vars=$(curl -fsS http://127.0.0.1:16997/t/alpha/debug/vars)
	tp=$(printf '%s' "$vars" | grep -m1 '"traffic_packets"' | tr -dc 0-9)
	[ "${tp:-0}" -gt 0 ] && break
	sleep 0.1
done
[ "${tp:-0}" -gt 0 ] || { echo "multi-tenant smoke: alpha's pump moved no traffic" >&2; exit 1; }
kp=$(printf '%s' "$vars" | grep -m1 '"Packets"' | tr -dc 0-9)
[ "${kp:-0}" -ge "$tp" ] ||
	{ echo "multi-tenant smoke: alpha kernel packets $kp < traffic $tp" >&2; exit 1; }
curl -fsS http://127.0.0.1:16997/t/beta/debug/vars | grep -q '"tenant": "beta"' ||
	{ echo "multi-tenant smoke: /t/beta/debug/vars not tagged beta" >&2; exit 1; }
curl -fsS http://127.0.0.1:16997/t/beta/metrics | grep -q pcc_filter_run_seconds_bucket ||
	{ echo "multi-tenant smoke: /t/beta/metrics missing the latency family" >&2; exit 1; }
curl -fsS http://127.0.0.1:16997/debug/vars | grep -q '"tenant": "alpha"' ||
	{ echo "multi-tenant smoke: bare /debug/vars is not the default tenant" >&2; exit 1; }
if curl -fsS http://127.0.0.1:16997/t/nope/healthz >/dev/null 2>&1; then
	echo "multi-tenant smoke: unknown tenant did not 404" >&2
	exit 1
fi
# Correlated timeline: the three observability streams join on one
# EventID. The boot SetBackend config change lands in all three by
# construction (a config span, a "config" audit record, and a
# "config_change" flight event on the same ID), so pull its EventID
# from alpha's stage-filtered timeline and ask for everything about
# that one ID.
eid=$(curl -fsS 'http://127.0.0.1:16997/t/alpha/debug/timeline?stage=config&kind=config_change' |
	sed -n 's/.*"event": \([0-9][0-9]*\),*$/\1/p' | head -n 1)
[ "${eid:-0}" -gt 0 ] ||
	{ echo "timeline smoke: no config-change EventID in alpha's timeline" >&2; exit 1; }
joined=$(curl -fsS "http://127.0.0.1:16997/t/alpha/debug/timeline?id=$eid")
printf '%s' "$joined" | grep -q '"stage": "config"' ||
	{ echo "timeline smoke: id=$eid join has no config span" >&2; exit 1; }
printf '%s' "$joined" | grep -q '"kind": "config"' ||
	{ echo "timeline smoke: id=$eid join has no config audit record" >&2; exit 1; }
printf '%s' "$joined" | grep -q '"kind": "config_change"' ||
	{ echo "timeline smoke: id=$eid join has no config_change flight event" >&2; exit 1; }
# Tenant isolation: beta's timeline must know nothing about alpha's ID.
curl -fsS "http://127.0.0.1:16997/t/beta/debug/timeline?id=$eid" |
	grep -q '"event": '"$eid" &&
	{ echo "timeline smoke: alpha's EventID $eid leaked into beta's timeline" >&2; exit 1; }
# Live watch: two bounded refreshes of the server-side windowed rates.
/tmp/pccmon.verify -watch 127.0.0.1:16997/t/alpha -watch-interval 200ms -watch-count 2 \
	>/tmp/pccmon.watch.out ||
	{ echo "watch smoke: pccmon -watch failed" >&2; exit 1; }
grep -q 'packets/s' /tmp/pccmon.watch.out ||
	{ echo "watch smoke: no windowed rates in the output" >&2; exit 1; }
grep -q 'tenant alpha' /tmp/pccmon.watch.out ||
	{ echo "watch smoke: output not tagged with the tenant" >&2; exit 1; }
rm -f /tmp/pccmon.watch.out
kill "$serve_pid"
if ! wait "$serve_pid"; then
	echo "multi-tenant smoke: pccmon -serve did not exit cleanly" >&2
	exit 1
fi
trap - EXIT
grep -q '"tenant":"alpha"' /tmp/pccmon.mt.audit.jsonl ||
	{ echo "multi-tenant smoke: audit log has no alpha-tagged records" >&2; exit 1; }
grep -q '"tenant":"beta"' /tmp/pccmon.mt.audit.jsonl ||
	{ echo "multi-tenant smoke: audit log has no beta-tagged records" >&2; exit 1; }
rm -f /tmp/pccmon.verify /tmp/pccmon.mt.audit.jsonl

# Crash-recovery smoke: the durability contract end to end through the
# operator-facing binaries. Boot a serving monitor with a durable
# store, install a filter over HTTP (the ack means the journal record
# is fsynced), kill -9 the process, and reboot on the same store: the
# install must come back — re-proved, not trusted. Then flip one proof
# byte in its journal record on disk and reboot again: recovery must
# refuse it and say so in the audit log.
echo '== crash-recovery smoke (pccmon -serve -store, kill -9, reboot)'
go build -o /tmp/pccmon.crash ./cmd/pccmon
go build -o /tmp/pccload.crash ./cmd/pccload
crashstore=$(mktemp -d)
go run ./cmd/pccasm -builtin filter4 -o /tmp/verify.crash.pcc >/dev/null
/tmp/pccmon.crash -serve 127.0.0.1:16998 -pps 200 -store "$crashstore" \
	-audit-out /tmp/pccmon.crash.audit.jsonl &
serve_pid=$!
trap 'kill -9 "$serve_pid" 2>/dev/null || true; rm -rf "$crashstore"' EXIT
ok=
for _ in $(seq 1 50); do
	if curl -fsS http://127.0.0.1:16998/healthz >/dev/null 2>&1; then
		ok=1
		break
	fi
	sleep 0.1
done
[ -n "$ok" ] || { echo "crash smoke: /healthz never came up" >&2; exit 1; }
/tmp/pccload.crash -install-url http://127.0.0.1:16998 -owner crashtest \
	/tmp/verify.crash.pcc ||
	{ echo "crash smoke: remote install failed" >&2; exit 1; }
curl -fsS http://127.0.0.1:16998/debug/vars | grep -q '"crashtest"' ||
	{ echo "crash smoke: crashtest not in the owner set after install" >&2; exit 1; }
# The ack above implies durability: a kill -9 right now must not lose it.
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
/tmp/pccmon.crash -serve 127.0.0.1:16998 -pps 200 -store "$crashstore" \
	-audit-out /tmp/pccmon.crash.audit2.jsonl &
serve_pid=$!
ok=
for _ in $(seq 1 50); do
	if curl -fsS http://127.0.0.1:16998/healthz >/dev/null 2>&1; then
		ok=1
		break
	fi
	sleep 0.1
done
[ -n "$ok" ] || { echo "crash smoke: reboot /healthz never came up" >&2; exit 1; }
curl -fsS http://127.0.0.1:16998/debug/vars | grep -q '"crashtest"' ||
	{ echo "crash smoke: kill -9 lost the acked-durable install" >&2; exit 1; }
# Graceful shutdown drains in-flight installs, then closes the store.
kill "$serve_pid"
if ! wait "$serve_pid"; then
	echo "crash smoke: pccmon -serve did not exit cleanly" >&2
	exit 1
fi
# The disk is untrusted: flip one proof byte of crashtest's journal
# record (the 4 boot filters occupy records 0..3, so the remote
# install is record 4) and forge the frame CRC so only re-validation
# can catch it.
/tmp/pccload.crash -tamper-store "$crashstore/default" -tamper-index 4 \
	| grep -q crashtest ||
	{ echo "crash smoke: tamper did not hit the crashtest record" >&2; exit 1; }
/tmp/pccmon.crash -serve 127.0.0.1:16998 -pps 200 -store "$crashstore" \
	-audit-out /tmp/pccmon.crash.audit3.jsonl &
serve_pid=$!
ok=
for _ in $(seq 1 50); do
	if curl -fsS http://127.0.0.1:16998/healthz >/dev/null 2>&1; then
		ok=1
		break
	fi
	sleep 0.1
done
[ -n "$ok" ] || { echo "crash smoke: post-tamper /healthz never came up" >&2; exit 1; }
curl -fsS http://127.0.0.1:16998/debug/vars | grep -q '"crashtest"' &&
	{ echo "crash smoke: recovery admitted a tampered binary" >&2; exit 1; }
kill "$serve_pid"
if ! wait "$serve_pid"; then
	echo "crash smoke: post-tamper pccmon -serve did not exit cleanly" >&2
	exit 1
fi
trap - EXIT
grep -q '"event":"recovery_skip"' /tmp/pccmon.crash.audit3.jsonl ||
	{ echo "crash smoke: tampered record's skip was not audited" >&2; exit 1; }
rm -rf "$crashstore"
rm -f /tmp/pccmon.crash /tmp/pccload.crash /tmp/verify.crash.pcc \
	/tmp/pccmon.crash.audit.jsonl /tmp/pccmon.crash.audit2.jsonl \
	/tmp/pccmon.crash.audit3.jsonl

# Adversarial smoke: 2,000 mutated binaries through the validator must
# produce zero escaped panics and zero unsound accepts (the 10,000-trial
# version runs under -race in the test suite above; this one proves the
# operator-facing entry point works).
echo '== chaos smoke (pccload -chaos 2000)'
go run ./cmd/pccload -chaos 2000 -chaos-seed 1996

# Store chaos smoke: 2,000 damaged journals (plus the kill-at-every-
# frame-boundary sweep) through verified recovery must produce zero
# unsound accepts, zero lost intact acked installs, and no hangs.
echo '== store chaos smoke (pccload -chaos-store 2000)'
go run ./cmd/pccload -chaos-store 2000 -chaos-seed 1996

# Deadline smoke: a validation under an already-expired deadline must be
# a typed rejection — fast, no proof checking, no hang.
echo '== deadline smoke (pccload -deadline 1ns)'
go run ./cmd/pccasm -builtin filter4 -o /tmp/verify.f4.pcc >/dev/null
if out=$(go run ./cmd/pccload -deadline 1ns /tmp/verify.f4.pcc 2>&1); then
	echo "deadline smoke: expired deadline did not reject: $out" >&2
	exit 1
fi
printf '%s' "$out" | grep -q 'deadline' ||
	{ echo "deadline smoke: rejection not deadline-classed: $out" >&2; exit 1; }
# The same binary with no deadline still validates (the gate rejects on
# time, not on content).
go run ./cmd/pccload /tmp/verify.f4.pcc >/dev/null
rm -f /tmp/verify.f4.pcc

# Backend-differential smoke: the paper corpus through both dispatch
# backends over a 1,000-packet trace, every verdict cross-checked
# against the reference semantics. Exits nonzero on any divergence.
echo '== backend differential smoke (pccload -diff-backends 1000)'
go run ./cmd/pccload -diff-backends 1000

# Scaling smoke: 8 goroutines sharing one lock-free kernel; the accept
# census must match the reference semantics exactly (a torn snapshot
# or a lost shard increment exits nonzero).
echo '== dispatch scaling smoke (pccload -scale 8)'
go run ./cmd/pccload -scale 8 -packets 20000

# Dispatch-performance regression gate, opt-in (it re-measures host
# wall-clock throughput, which takes a minute and wants a quiet host).
if [ "${BENCHCHECK:-0}" = "1" ]; then
	echo '== bench regression gate (BENCHCHECK=1)'
	sh scripts/benchcheck.sh
fi

echo 'verify: OK'
