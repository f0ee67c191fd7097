#!/usr/bin/env bash
# CI pipeline: formatting, lints, build, tests, example and benchmark
# compile-checks, the service smoke test (daemon + loadgen burst),
# and the perf/service snapshots. Mirrors the recipes in ./justfile.
#
# `./ci.sh serve-smoke` runs only the daemon smoke test (used by
# `just serve-smoke`); `./ci.sh chaos-smoke` runs only the fault-injection
# drill against a real armed daemon (used by `just chaos`);
# `./ci.sh metrics-smoke` boots a span-logging daemon, drives traffic and
# verifies the /v1/metrics exposition and the span log (used by
# `just metrics`); `./ci.sh fleet-smoke` boots the fleet router with 3
# real worker processes, kill -9s one mid-burst and asserts zero lost
# requests, respawn and the drain/readyz transitions (used by
# `just fleet`).
set -euo pipefail
cd "$(dirname "$0")"

# Every smoke keeps its files under one temp prefix and runs at most one
# daemon at a time ($pid); both are cleaned up on exit, pass or fail. The
# snapshot writers run in a directory under the prefix too, so CI leaves
# the tracked BENCH_*.json records alone (`just perf` and
# `just service-bench` re-record them).
tmp="$(mktemp -u)"
log="$tmp.log"
pid=""
cleanup() {
  if [ -n "$pid" ]; then
    kill "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
  fi
  rm -rf "$tmp"*
}
trap cleanup EXIT

# Fails the run with a message and the daemon log (or the file named
# second).
die() {
  echo "$1; ${2:-daemon log}:" >&2
  cat "${2:-$log}" >&2
  exit 1
}

# Boots a daemon (the command line after the announce pattern, stderr to
# $log) and waits until its log shows an address matching the pattern;
# sets $pid and $addr.
boot_daemon() {
  local pattern="$1"
  shift
  : > "$log"
  "$@" 2> "$log" &
  pid=$!
  for _ in $(seq 1 200); do
    addr=$(grep -oE "$pattern" "$log" | head -1 | grep -oE '127\.0\.0\.1:[0-9]+' || true)
    [ -n "$addr" ] && return
    sleep 0.1
  done
  die "daemon did not announce an address"
}

# Drives the booted daemon with one loadgen mode (which ends by asking it
# to shut down), then waits for its clean exit — at most 10 s, so a daemon
# whose acceptor never wakes fails the run instead of hanging it.
drive_daemon() {
  ./target/release/loadgen "$@" --addr "$addr" || die "loadgen $* failed"
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2> /dev/null || break
    sleep 0.1
  done
  kill -0 "$pid" 2> /dev/null && die "daemon did not exit after /v1/shutdown"
  wait "$pid"
  pid=""
}

serve_smoke() {
  echo "==> service smoke (daemon + loadgen burst + warm restart)"
  cargo build --release -q -p batsched-cli -p batsched-bench
  local cache="$tmp.serve.jsonl"
  # Round 1: schedule (JSON + binary wire formats, one shared cache key)
  # + malformed + keep-alive pass + stats + shutdown (the daemon compacts
  # its disk cache on the way out).
  boot_daemon '127\.0\.0\.1:[0-9]+' \
    ./target/release/batsched serve --http 127.0.0.1:0 --disk-cache "$cache"
  drive_daemon --smoke
  echo "daemon shut down cleanly"
  # Round 2: a fresh daemon on the same cache file must answer the same
  # request — in either wire format — as an X-Cache hit attributed to the
  # disk tier.
  boot_daemon '127\.0\.0\.1:[0-9]+' \
    ./target/release/batsched serve --http 127.0.0.1:0 --disk-cache "$cache"
  drive_daemon --smoke-warm
  echo "warm restart served from the disk tier"
}

chaos_smoke() {
  echo "==> chaos smoke (armed daemon + loadgen fault drill)"
  cargo build --release -q -p batsched-cli -p batsched-bench
  # Boot a real daemon with the fault plane armed: one solver panic
  # (targeted at the G2/deadline-75 request), a burst of 10 disk-append
  # failures, and 500 ms of injected latency (2x the request deadline) on
  # every 20th solve. The rules mirror CHAOS_FAULTS in loadgen.rs —
  # keep the two lists in lockstep.
  boot_daemon '127\.0\.0\.1:[0-9]+' \
    ./target/release/batsched serve --http 127.0.0.1:0 --disk-cache "$tmp.chaos.jsonl" \
    --request-timeout 250 --disk-breaker 3 --disk-probe-ms 150 \
    --fault 'solver-panic:count=1,key="deadline":75' \
    --fault 'disk-append:after=5,count=10' \
    --fault 'solver-latency:every=20,ms=500,count=5'
  # --check asserts: zero lost requests, only typed timeout/internal
  # errors, >=1 worker respawn, disk breaker tripped then re-armed.
  drive_daemon --chaos --check
  echo "chaos drill survived: typed errors only, pool respawned, disk tier re-armed"
}

metrics_smoke() {
  echo "==> metrics smoke (daemon + /v1/metrics scrape + span log)"
  cargo build --release -q -p batsched-cli -p batsched-bench
  local spans="$tmp.spans"
  : > "$spans"
  # Boot the daemon with structured span logging; loadgen's first request
  # is a /readyz probe, so the drive only starts once the pool is ready.
  # It drives 4 /v1/schedule requests (cold, 2 hits, malformed), scrapes
  # /v1/metrics and asserts exposition shape and exact counts.
  boot_daemon '127\.0\.0\.1:[0-9]+' \
    ./target/release/batsched serve --http 127.0.0.1:0 --log-json "$spans"
  drive_daemon --metrics-smoke

  # The span log must carry exactly one span per /v1/schedule request
  # (stats/metrics/readyz/shutdown emit none) with client ids preserved.
  local lines
  lines=$(grep -c '"trace_id"' "$spans" || true)
  [ "$lines" -eq 4 ] || die "expected 4 span lines, got $lines" "$spans"
  for id in '"trace_id":"metrics-smoke-1"' '"trace_id":"metrics-smoke-bad"'; do
    grep -q "$id" "$spans" || die "client trace id $id missing" "$spans"
  done
  echo "metrics exposition well-formed; span log carried $lines spans with client ids"
}

fleet_smoke() {
  echo "==> fleet smoke (router + 3 workers, kill -9 mid-burst, drain/restart)"
  cargo build --release -q -p batsched-cli -p batsched-bench
  # Boot the router with 3 supervised `batsched serve` children, each
  # owning its own disk shard ($tmp.fleet.jsonl.shard-K). Small
  # probe/backoff budgets keep the kill -9 → respawn → ready cycle fast.
  # Only the router announces "listening on" — worker announce lines are
  # consumed by the launcher, never re-emitted.
  boot_daemon 'listening on http://127\.0\.0\.1:[0-9]+' \
    ./target/release/batsched fleet --http 127.0.0.1:0 --size 3 --workers 1 \
    --disk-cache "$tmp.fleet.jsonl" \
    --probe-interval-ms 50 --restart-backoff-ms 100 --restart-backoff-max-ms 1000
  # loadgen --fleet-smoke: warm burst with pinned routing, kill -9 of the
  # worker owning a known hash slice (pid read from /v1/fleet), zero-loss
  # failover burst, respawn + /readyz recovery, drain drill asserting the
  # ready -> not-ready -> ready transition, then /v1/shutdown.
  drive_daemon --fleet-smoke
  echo "fleet drill survived: kill -9 lost nothing, worker respawned, drain cycled readyz"
}

case "${1:-}" in
  serve-smoke | chaos-smoke | metrics-smoke | fleet-smoke)
    "${1//-/_}"
    exit 0
    ;;
esac

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> batsched-lint (invariant gates: panic-path, nested-lock, uncapped-wire-alloc, nondeterministic-iter, crate-hygiene)"
# The workspace invariant linter (crates/lint): hard gate, zero findings
# allowed — suppressions only via an annotated, machine-checked
# `// lint:allow(<rule>): <reason>`, and stale allows are errors too.
# See docs/LINT.md for the rule catalogue.
cargo run --release -q -p batsched-lint --bin batsched-lint

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --examples (compile-check examples/)"
cargo build --release --examples

echo "==> perfbench build (the benchmark's own workspace, lockfile frozen)"
# perfbench builds against the workspace crates by path: a public API it
# uses changing, or its Cargo.lock needing a rewrite, fails here.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo test (workspace)"
cargo test --workspace -q

serve_smoke

chaos_smoke

metrics_smoke

fleet_smoke

# The snapshot writers put BENCH_*.json in their working directory.
root="$PWD"
snapshots="$tmp.snapshots"
mkdir "$snapshots"

echo "==> perf smoke (BENCH_scheduler.json written under the temp prefix, floors enforced)"
# Quick-mode perf smoke: fails the pipeline if sigma_full_vs_naive or
# cdp_speedup regress below their conservative 2x floors, or if the
# sweep_scaling fitted growth exponent climbs above 1.4 (the gates of
# `just bench-quick`).
(cd "$snapshots" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
  -p batsched-bench --bin repro_bench_json -- --quick --check)

echo "==> service drills (BENCH_service.json written under the temp prefix, wire/malformed/chaos/fleet gates enforced)"
# --check runs each in-process drill once: the wire admission A/B (both
# wire formats must produce one cache key, and the single-pass binary
# decode plus the content hash must beat JSON parse+hash by >= 2x at
# n=200), the malformed stream (typed errors only), the chaos drill, and
# the fleet drill (router + 3 workers, kill mid-burst, zero lost
# requests); the snapshot records their reports.
(cd "$snapshots" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
  -p batsched-bench --bin loadgen -- --quick --check)

echo "CI OK"
