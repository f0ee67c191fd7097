# Developer entry points. `just ci` mirrors ./ci.sh.

# Run formatting check, lints, build, tests and the perf snapshot.
ci:
    ./ci.sh

# Format the whole workspace in place.
fmt:
    cargo fmt --all

# Lints with warnings denied.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Workspace invariant linter (crates/lint): panic-path, nested-lock,
# uncapped-wire-alloc, nondeterministic-iter, crate-hygiene. Zero
# findings allowed; see docs/LINT.md for the catalogue and the
# lint:allow grammar.
lint:
    cargo run --release -q -p batsched-lint --bin batsched-lint

# Full test suite.
test:
    cargo test --workspace -q

# Criterion runtime benches (quick mode).
bench:
    BATSCHED_BENCH_QUICK=1 cargo bench -p batsched-bench

# Regenerate the perf-trajectory snapshot (BENCH_scheduler.json).
perf:
    cargo run --release -p batsched-bench --bin repro_bench_json -- --full

# Quick perf smoke: regenerate the snapshot and fail if sigma_full_vs_naive
# or cdp_speedup drop below their conservative 2x floors, or the
# sweep_scaling fitted exponent climbs above 1.4.
bench-quick:
    cargo run --release -p batsched-bench --bin repro_bench_json -- --quick --check

# Boot the HTTP daemon (disk-backed cache), fire a loadgen burst with a
# keep-alive pass, then restart it and assert the warm request is served
# from the disk tier.
serve-smoke:
    ./ci.sh serve-smoke

# Regenerate the service drill snapshot (BENCH_service.json: the wire
# A/B, malformed, chaos and fleet drills at full size, their --check
# gates enforced).
service-bench:
    cargo run --release -p batsched-bench --bin loadgen -- --check

# Binary-vs-JSON admission A/B on the n-scaling instances: both wire
# formats must produce one cache key, and the single-pass binary decode
# plus the content hash must beat JSON parse+hash by >= 2x at n=200.
wire:
    cargo run --release -p batsched-bench --bin loadgen -- --wire --check

# Fault-injection drill against a real armed daemon: injected solver
# panic, disk-append burst, latency beyond the request deadline. Asserts
# zero lost requests, typed errors only, worker respawn, and disk-tier
# degraded-mode recovery.
chaos:
    ./ci.sh chaos-smoke

# Observability smoke: boot the daemon with --log-json, drive traffic,
# scrape /v1/metrics (well-formed exposition, exact histogram counts) and
# assert one span line per request with client trace ids preserved.
metrics:
    ./ci.sh metrics-smoke

# Fleet drill: boot the content-hash router with 3 supervised worker
# processes, drive a burst, kill -9 one worker mid-burst (zero lost
# requests — failover retries are safe because requests are idempotent by
# content hash), assert respawn-with-backoff and the drain/readyz cycle.
fleet:
    ./ci.sh fleet-smoke
