//! Load generator and drill driver for the batch-scheduling service.
//!
//! Default mode runs four drills and writes their reports to
//! `BENCH_service.json`. End-to-end request latency is measured by the
//! benchmark (`perfbench/`), not here.
//!
//! * **wire** — the admission A/B on the shared n-scaling instances
//!   (n ∈ {50, 100, 200}, m = 8): each request is admitted `iters` times
//!   as JSON (`parse_request` + the content hash) and as binary
//!   (`decode_request`: the single-pass binary decode, then the same
//!   content hash), asserting the two spellings produce the same cache
//!   key; `--check` fails the run unless binary decode + hash wins by
//!   ≥ 2× at n = 200;
//! * **malformed** — broken/hostile documents; the run fails unless every
//!   one is answered with a *typed* error (the daemon must never panic).
//!
//! * **chaos** — the fault-injection drill: the service runs with the
//!   fault plane armed (one injected solver panic, a burst of disk-append
//!   failures, periodic solver latency beyond the request deadline) and a
//!   tight request timeout. Every request must get exactly one well-formed
//!   response (a schedule or a typed `timeout`/`internal` error), the
//!   worker pool must respawn its panicked worker, and the disk tier must
//!   trip its breaker into degraded mode and then re-arm once the fault
//!   burst passes.
//!
//! * **fleet** — the fleet-scale drill: an in-process [`batsched_service::Fleet`]
//!   (content-hash router + 3 supervised workers) serves the
//!   duplicate-heavy stream A/B against a single-process daemon, then one
//!   worker is killed mid-burst; every request must still be answered
//!   exactly once (failover retries are safe — requests are idempotent by
//!   content hash), the dead worker must be respawned, and the fleet must
//!   return to ready. `--check` fails the run on any lost request.
//!
//! Flags: `--quick` shrinks the drills (CI mode); `--check` enforces the
//! binary-admission ≥ 2× floor and the chaos and fleet asserts; `--wire`
//! runs only the wire A/B and prints its report; `--smoke --addr <host:port>`
//! switches to HTTP-client mode against a running daemon — schedule
//! request (in both wire formats — the binary spelling must hit the JSON
//! request's cache entry and an `Accept`-negotiated binary response must
//! transcode back bit-identically), typed 4xx on malformed input, a
//! keep-alive multi-request pass, stats, then shutdown;
//! `--smoke-warm --addr <host:port>` is the post-restart probe: the same
//! schedule request — in both wire formats — must come back
//! `X-Cache: hit` served from the daemon's disk tier (the ci.sh
//! warm-restart check);
//! `--metrics-smoke --addr <host:port>` drives traffic and then scrapes
//! `GET /v1/metrics`, asserting a well-formed Prometheus exposition whose
//! histogram counts match the requests it sent (the ci.sh metrics-smoke
//! check); `--chaos` runs only the chaos drill (add `--addr <host:port>`
//! to drive an external daemon booted with the same `--fault` rules — see
//! `ci.sh chaos-smoke` — instead of an in-process one); `--fleet` runs
//! only the in-process fleet drill and prints its report;
//! `--fleet-smoke --addr <host:port>` drives an external `batsched fleet`
//! daemon: warm burst with routing pinned per content hash, a real
//! `kill -9` of one worker mid-burst with zero lost requests, respawn and
//! `/readyz` recovery, then a drain/restart drill asserting the
//! ready → not-ready → ready transition (the ci.sh fleet-smoke check).

#![forbid(unsafe_code)]

use batsched_service::http::client::Conn;
use batsched_service::wire::DEFAULT_MAX_ITERATIONS;
use batsched_service::wire_bin::CONTENT_TYPE as BIN_CONTENT_TYPE;
use batsched_service::{
    decode_request, decode_response, encode_request, home_slot, parse_request, Disposition,
    ErrorResponse, FaultPlane, FaultRule, Fleet, FleetConfig, HttpServer, InProcessLauncher,
    ModelSpec, ScheduleRequest, ScheduleResponse, Service, ServiceConfig,
};
use batsched_taskgraph::analysis::{max_makespan, min_makespan};
use batsched_taskgraph::paper::g2;
use batsched_taskgraph::synth::{layered, Rounding, ScalingScheme, TaskParams};
use batsched_taskgraph::TaskGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use serde_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn synth_graph(n: usize, m: usize, seed: u64) -> TaskGraph {
    let width = 4usize;
    let layers = n.div_ceil(width).max(2);
    let params = TaskParams {
        current_range: (100.0, 900.0),
        duration_range: (2.0, 12.0),
        factors: (0..m)
            .map(|j| 1.0 - 0.67 * j as f64 / (m - 1) as f64)
            .collect(),
        scheme: ScalingScheme::ReversedDuration,
        rounding: Rounding::PAPER,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    layered(layers, width, 0.35, &params, &mut rng).expect("valid generator config")
}

fn loose_deadline(g: &TaskGraph) -> f64 {
    let lo = min_makespan(g).value();
    let hi = max_makespan(g).value();
    lo + (hi - lo) * 0.7
}

fn body_for(g: &TaskGraph, deadline: f64) -> String {
    serde_json::to_string(&ScheduleRequest::new(g.clone(), deadline)).expect("serialises")
}

/// A request for `synth_graph(n, m, seed)` under its loose deadline.
fn synth_body(n: usize, m: usize, seed: u64) -> String {
    let g = synth_graph(n, m, seed);
    body_for(&g, loose_deadline(&g))
}

/// `count` synthetic requests, seeded `seed`, `seed + 1`, ….
fn synth_bodies(count: u64, n: usize, m: usize, seed: u64) -> Vec<String> {
    (0..count).map(|k| synth_body(n, m, seed + k)).collect()
}

/// `uniques` repeated `repeats` times round-robin, each pass rotated by
/// one, so a cold pass over every body comes first.
fn round_robin(uniques: &[String], repeats: usize) -> Vec<String> {
    let mut bodies = Vec::with_capacity(uniques.len() * repeats);
    for r in 0..repeats {
        for k in 0..uniques.len() {
            bodies.push(uniques[(k + r) % uniques.len()].clone());
        }
    }
    bodies
}

#[derive(Debug, Serialize)]
struct MalformedReport {
    requests: usize,
    typed_errors: usize,
    unexpected_ok: usize,
}

#[derive(Debug, Serialize)]
struct WirePoint {
    n: usize,
    iters: usize,
    json_admit_us: f64,
    bin_admit_us: f64,
    speedup: f64,
    json_bytes: usize,
    bin_bytes: usize,
    keys_match: bool,
}

#[derive(Debug, Serialize)]
struct ChaosReport {
    requests: usize,
    ok: usize,
    timeouts: usize,
    internal_errors: usize,
    unexpected_responses: usize,
    recovery_requests: usize,
    worker_panics: u64,
    worker_respawns: u64,
    disk_errors: u64,
    disk_breaker_trips: u64,
    disk_rearms: u64,
    faults_injected: u64,
    recovered: bool,
}

#[derive(Debug, Serialize)]
struct FleetReport {
    workers: usize,
    requests: usize,
    single_rps: f64,
    fleet_rps: f64,
    fleet_vs_single: f64,
    kill_burst_requests: usize,
    kill_burst_ok: usize,
    kill_burst_unavailable: usize,
    kill_burst_other: usize,
    lost: usize,
    router_retries: u64,
    respawned: bool,
    ready_after_kill: bool,
}

#[derive(Debug, Serialize)]
struct BenchDoc {
    config: ConfigDoc,
    wire: Vec<WirePoint>,
    malformed: MalformedReport,
    chaos: ChaosReport,
    fleet: FleetReport,
}

/// The run's flags and the malformed drill's service configuration.
#[derive(Debug, Serialize)]
struct ConfigDoc {
    quick: bool,
    check: bool,
    workers: usize,
    queue_capacity: usize,
    cache_capacity: usize,
    cache_shards: usize,
}

fn malformed_stream() -> Vec<String> {
    let ok = body_for(&g2(), 75.0);
    vec![
        String::new(),
        "{".into(),
        "[1,2,3]".into(),
        "\"just a string\"".into(),
        ok.replace("\"v\":1", "\"v\":9"),
        ok.replace("\"deadline\":75", "\"deadline\":-10"),
        ok.replace("\"deadline\":75", "\"deadline\":1e999"),
        ok.replace("\"deadline\":75", "\"deadline\":0.001"), // infeasible
        ok.replace("\"edges\":[", "\"edges\":[[0,1],[0,1],"), // duplicate edge
        ok.replace("\"edges\":[", "\"edges\":[[7,99],"),     // unknown task
        ok.replace(
            "\"model\":null",
            "\"model\":{\"Kibam\":{\"c\":7.0,\"k\":-1.0,\"alpha\":0.0}}",
        ),
        ok.replace("\"model\":null", "\"model\":{\"Unobtainium\":{}}"),
        ok.replace("\"max_iterations\":null", "\"max_iterations\":0"),
        ok.replace("\"tasks\":[", "\"tasks\":3,\"was\":["),
        // A graph with a negative duration smuggled in (G2 task A runs 1.2
        // minutes at DP1; every 1.2 in the document goes negative).
        ok.replace("\"duration\":1.2", "\"duration\":-1.2"),
    ]
}

/// Per-operation budget for connections to a daemon under test.
const HTTP_TIMEOUT: Duration = Duration::from_secs(30);

/// The header declaring a binary wire-format request body.
const SEND_BINARY: &str = "Content-Type: application/x-batsched-bin";

/// Connects to a daemon under test; a refused connection fails the run.
fn connect(addr: &str) -> Conn {
    Conn::connect(addr, HTTP_TIMEOUT).unwrap_or_else(|e| panic!("cannot connect to {addr}: {e}"))
}

/// One exchange on `c` as `(status, head, body)`; `close` asks the daemon
/// to close the connection after answering. A transport failure fails the
/// run.
fn request(
    c: &mut Conn,
    method: &str,
    path: &str,
    body: &str,
    close: bool,
) -> (u16, String, String) {
    let r = c.call(method, path, &[], body.as_bytes(), !close);
    let r = r.unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    let text = String::from_utf8(r.body).expect("UTF-8 body");
    (r.status, r.head, text)
}

/// Field `field` of a JSON object document (a stats or fleet-topology
/// reply); a missing field fails the run.
fn json_field(doc: &str, field: &str) -> Value {
    let v = serde::json::parse(doc).unwrap_or_else(|e| panic!("not JSON ({e}): {doc}"));
    let found = v.get(field).cloned();
    found.unwrap_or_else(|| panic!("field {field} missing: {doc}"))
}

/// Integer field `field` of a stats (or topology) document.
fn stats_counter(doc: &str, field: &str) -> u64 {
    match json_field(doc, field) {
        Value::Num(n) => n as u64,
        v => panic!("field {field} is not a number but {v:?}: {doc}"),
    }
}

/// The wire-format admission A/B on the shared n-scaling instances: each
/// request is admitted repeatedly as JSON (`parse_request` plus the
/// canonical content hash — everything the service does before
/// the cache lookup) and as binary (`decode_request`: the single-pass
/// binary decode plus the same content hash). The two spellings must produce
/// the same cache key; with `check`, the binary path must win by ≥ 2× on
/// the largest instance.
fn run_wire(quick: bool, check: bool) -> Vec<WirePoint> {
    let iters = if quick { 40 } else { 160 };
    let mut points = Vec::new();
    for &n in &[50usize, 100, 200] {
        let g = batsched_bench::workloads::synthetic_scaling(n);
        let deadline = loose_deadline(&g);
        let req = ScheduleRequest::new(g, deadline);
        let json = serde_json::to_string(&req).expect("request serialises");
        let bin = encode_request(&req);

        let json_key = parse_request(&json).expect("JSON admits").content_hash();
        let (_, bin_key) = decode_request(&bin).expect("binary admits");
        let keys_match = json_key == bin_key;
        assert!(
            keys_match,
            "n={n}: JSON and binary spellings must share one cache key \
             ({json_key:016x} vs {bin_key:016x})"
        );

        // Fold every hash into a sink so the admission work cannot be
        // optimised away.
        let mut sink = 0u64;
        let t0 = Instant::now();
        for _ in 0..iters {
            let req = parse_request(std::hint::black_box(&json)).expect("JSON admits");
            sink = sink.wrapping_add(req.content_hash());
        }
        let json_admit_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
        let t0 = Instant::now();
        for _ in 0..iters {
            let (req, hash) = decode_request(std::hint::black_box(&bin)).expect("binary admits");
            std::hint::black_box(&req);
            sink = sink.wrapping_add(hash);
        }
        let bin_admit_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
        std::hint::black_box(sink);

        let point = WirePoint {
            n,
            iters,
            json_admit_us,
            bin_admit_us,
            speedup: json_admit_us / bin_admit_us.max(1e-9),
            json_bytes: json.len(),
            bin_bytes: bin.len(),
            keys_match,
        };
        eprintln!(
            "wire      : n={n}, JSON parse+hash {:.0} µs vs binary decode+hash {:.0} µs → {:.1}× ({} vs {} bytes)",
            point.json_admit_us,
            point.bin_admit_us,
            point.speedup,
            point.json_bytes,
            point.bin_bytes
        );
        if check && n == 200 {
            assert!(
                point.speedup >= 2.0,
                "binary decode+hash must beat JSON parse+hash by ≥ 2× at n=200, got {:.2}×",
                point.speedup
            );
        }
        points.push(point);
    }
    points
}

/// Pulls one sample's value out of a Prometheus text exposition. Pass the
/// full sample name including any label set (`foo_total` or
/// `foo_bucket{le="+Inf"}`).
fn metrics_value(text: &str, sample: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            (name == sample).then(|| {
                value
                    .parse()
                    .unwrap_or_else(|_| panic!("metric {sample} not numeric: {line}"))
            })
        })
        .unwrap_or_else(|| panic!("metric {sample} missing from exposition"))
}

/// The canonical chaos fault rules. `ci.sh chaos-smoke` boots a real
/// daemon with these exact specs (as `--fault` flags), so keep the two
/// lists in lockstep:
///
/// * panic the solver once, on the G2/deadline-75 request specifically
///   (it is never latency-injected, so its typed `internal` reply always
///   reaches the client instead of racing a timeout);
/// * fail disk appends 6 through 15 — enough consecutive errors to trip
///   the breaker, with leftover budget for the re-probe loop to burn
///   before a probe succeeds and re-arms the tier;
/// * sleep 500 ms (2× the 250 ms request deadline) on every 20th solve,
///   at most 5 times, so some requests answer a typed `timeout` (the
///   probe sits in the solve, so cache hits never count toward the 20).
const CHAOS_FAULTS: [&str; 3] = [
    "solver-panic:count=1,key=\"deadline\":75",
    "disk-append:after=5,count=10",
    "solver-latency:every=20,ms=500,count=5",
];
const CHAOS_TIMEOUT_MS: u64 = 250;
const CHAOS_PROBE_MS: u64 = 150;
const CHAOS_BREAKER_THRESHOLD: u32 = 3;

/// The chaos drill (see the module docs). Self-hosts an armed service
/// over real HTTP when `addr` is `None`; otherwise drives a daemon at
/// `addr` that was booted with the [`CHAOS_FAULTS`] rules.
fn run_chaos(quick: bool, check: bool, addr: Option<&str>) -> ChaosReport {
    let hosted = if addr.is_none() {
        let dir = std::env::temp_dir().join("batsched_loadgen");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("chaos_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 512,
            disk_path: Some(path.clone()),
            request_timeout: Some(Duration::from_millis(CHAOS_TIMEOUT_MS)),
            disk_breaker_threshold: CHAOS_BREAKER_THRESHOLD,
            disk_probe_interval: Duration::from_millis(CHAOS_PROBE_MS),
            ..ServiceConfig::default()
        };
        let rules = CHAOS_FAULTS
            .iter()
            .map(|s| FaultRule::parse(s).expect("canonical chaos fault spec"));
        let svc = Arc::new(
            Service::try_start_with_faults(cfg, FaultPlane::armed(rules))
                .expect("chaos service starts"),
        );
        let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind chaos daemon");
        Some((svc, server, path))
    } else {
        None
    };
    let addr = match (&hosted, addr) {
        (Some((_, server, _)), _) => server.local_addr().to_string(),
        (None, Some(a)) => a.to_string(),
        (None, None) => unreachable!(),
    };

    // A duplicate-bearing stream: every 6th request replays the G2 body
    // (the panic target; later replays must recover and then cache), the
    // rest are unique synthetic instances (cold solves → disk appends).
    let total = if quick { 40 } else { 72 };
    let dup = body_for(&g2(), 75.0);
    let bodies: Vec<String> = (0..total)
        .map(|i| {
            if i % 6 == 5 {
                dup.clone()
            } else {
                synth_body(14, 4, 0xC4A05 + i as u64)
            }
        })
        .collect();

    let mut client = connect(&addr);
    let (mut ok, mut timeouts, mut internal, mut unexpected) = (0usize, 0usize, 0usize, 0usize);
    for body in &bodies {
        let (code, _, payload) = request(&mut client, "POST", "/v1/schedule", body, false);
        match code {
            200 if serde_json::from_str::<ScheduleResponse>(&payload).is_ok() => ok += 1,
            _ => match serde_json::from_str::<ErrorResponse>(&payload) {
                Ok(e) if e.error == "timeout" && code == 504 => timeouts += 1,
                Ok(e) if e.error == "internal" && code == 500 => internal += 1,
                _ => {
                    eprintln!("chaos: unexpected response {code}: {payload}");
                    unexpected += 1;
                }
            },
        }
    }

    // Recovery: keep poking the daemon with unique cache-missing requests
    // so the breaker's probe path runs, until the disk tier has tripped,
    // burnt the injected-error budget and re-armed.
    let mut recovery = 0usize;
    let mut recovered = false;
    for k in 0..200u64 {
        let (code, _, stats) = request(&mut client, "GET", "/v1/stats", "", false);
        assert_eq!(code, 200, "stats must stay up under chaos: {stats}");
        if stats_counter(&stats, "disk_breaker_trips") >= 1
            && stats_counter(&stats, "disk_rearms") >= 1
            && json_field(&stats, "disk_degraded") == Value::Bool(false)
        {
            recovered = true;
            break;
        }
        let body = synth_body(12, 3, 0xFEE1BAD + k);
        let (code, _, payload) = request(&mut client, "POST", "/v1/schedule", &body, false);
        match code {
            200 => {}
            504 | 500 => {} // injected latency / leftover faults: still typed
            other => panic!("chaos recovery: unexpected response {other}: {payload}"),
        }
        recovery += 1;
        std::thread::sleep(Duration::from_millis(60));
    }

    let (code, _, stats) = request(&mut client, "GET", "/v1/stats", "", false);
    assert_eq!(code, 200);
    // The armed fault plane must be visible through BOTH observability
    // surfaces: the stats JSON and the Prometheus exposition.
    let (code, _, metrics) = request(&mut client, "GET", "/v1/metrics", "", true);
    assert_eq!(code, 200, "metrics must stay up under chaos");
    let injected_metric = metrics_value(&metrics, "batsched_fault_injected_total");
    let report = ChaosReport {
        requests: bodies.len(),
        ok,
        timeouts,
        internal_errors: internal,
        unexpected_responses: unexpected,
        recovery_requests: recovery,
        worker_panics: stats_counter(&stats, "worker_panics"),
        worker_respawns: stats_counter(&stats, "worker_respawns"),
        disk_errors: stats_counter(&stats, "disk_errors"),
        disk_breaker_trips: stats_counter(&stats, "disk_breaker_trips"),
        disk_rearms: stats_counter(&stats, "disk_rearms"),
        faults_injected: stats_counter(&stats, "faults_injected"),
        recovered,
    };
    assert_eq!(
        report.faults_injected, injected_metric as u64,
        "stats and metrics must agree on injected-fault counts"
    );

    match hosted {
        Some((svc, server, path)) => {
            server.stop();
            server.wait();
            svc.shutdown();
            let _ = std::fs::remove_file(&path);
        }
        None => {
            let (code, payload) = http_call(&addr, "POST", "/v1/shutdown", "");
            assert_eq!(code, 200, "chaos daemon must shut down cleanly: {payload}");
        }
    }

    assert_eq!(
        report.ok + report.timeouts + report.internal_errors + report.unexpected_responses,
        report.requests,
        "every request must get exactly one response"
    );
    if check {
        assert_eq!(
            report.unexpected_responses, 0,
            "chaos responses must all be schedules or typed timeout/internal errors"
        );
        assert!(
            report.timeouts >= 1,
            "injected latency must cause a typed timeout: {report:?}"
        );
        assert!(
            report.internal_errors >= 1,
            "the injected panic must answer typed: {report:?}"
        );
        assert!(report.worker_panics >= 1, "{report:?}");
        assert!(
            report.worker_respawns >= 1,
            "the pool must respawn its panicked worker: {report:?}"
        );
        assert!(
            report.disk_errors >= u64::from(CHAOS_BREAKER_THRESHOLD),
            "{report:?}"
        );
        assert!(
            report.disk_breaker_trips >= 1,
            "the disk burst must trip the breaker: {report:?}"
        );
        assert!(
            report.recovered && report.disk_rearms >= 1,
            "the disk tier must re-arm once the fault burst passes: {report:?}"
        );
        assert!(
            report.faults_injected >= 1,
            "an armed fault run must leave fault_injected_total > 0: {report:?}"
        );
    }
    report
}

/// Sends each of `uniques` once, on a fresh connection each, so later
/// passes are cache hits.
fn prime(addr: &str, uniques: &[String]) {
    for b in uniques {
        let (code, _, payload) = request(&mut connect(addr), "POST", "/v1/schedule", b, true);
        assert_eq!(code, 200, "prime request failed: {payload}");
    }
}

/// Sends `bodies` down one kept-alive connection; returns its requests
/// per second.
fn keepalive_rps(addr: &str, bodies: &[String]) -> f64 {
    let t0 = Instant::now();
    let mut client = connect(addr);
    for (i, b) in bodies.iter().enumerate() {
        let close = i + 1 == bodies.len();
        let (code, _, _) = request(&mut client, "POST", "/v1/schedule", b, close);
        assert_eq!(code, 200);
    }
    bodies.len() as f64 / t0.elapsed().as_secs_f64()
}

/// The worker the fleet router names for `body`; asked twice down one
/// connection, it must name the same worker.
fn pinned_worker(addr: &str, body: &str) -> usize {
    let mut client = connect(addr);
    let mut ask = || {
        let r = client.call("POST", "/v1/schedule", &[], body.as_bytes(), true);
        let worker = r
            .expect("pinned request")
            .header("X-Fleet-Worker")
            .map(str::parse);
        worker
            .and_then(Result::ok)
            .expect("router names its worker")
    };
    let first = ask();
    assert_eq!(first, ask(), "duplicates must pin to one worker");
    first
}

/// Sends each body as a one-shot schedule request (`before(i)` runs ahead
/// of the i-th) and tallies `[ok, typed upstream_unavailable, other,
/// lost]`. A lost request is a transport failure: the fleet broke its
/// exactly-once answer contract.
fn classify_burst(addr: &str, bodies: &[String], mut before: impl FnMut(usize)) -> [usize; 4] {
    let mut tally = [0usize; 4];
    for (i, b) in bodies.iter().enumerate() {
        before(i);
        let sent = Conn::connect(addr, HTTP_TIMEOUT)
            .and_then(|mut c| c.call("POST", "/v1/schedule", &[], b.as_bytes(), false));
        let slot = match sent {
            Ok(r) if r.status == 200 => 0,
            Ok(r) if r.status == 503 && r.text().contains("upstream_unavailable") => 1,
            Ok(r) => {
                eprintln!("burst: unexpected response {}: {}", r.status, r.text());
                2
            }
            Err(e) => {
                eprintln!("burst: LOST request {i}: {e}");
                3
            }
        };
        tally[slot] += 1;
    }
    tally
}

/// The fleet drill (see the module docs): single-process baseline vs a
/// 3-worker in-process fleet on the duplicate-heavy stream, then the
/// zero-loss kill drill — the worker owning `uniques[0]`'s hash slice is
/// killed mid-burst and every request must still be answered exactly
/// once, with the dead worker respawned and the fleet back to ready.
fn run_fleet(quick: bool, check: bool) -> FleetReport {
    const FLEET_SIZE: usize = 3;
    let worker_cfg = ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        cache_capacity: 256,
        ..ServiceConfig::default()
    };
    let uniques = synth_bodies(FLEET_SIZE as u64, 24, 5, 0xF1EE7);
    let repeats = if quick { 30 } else { 80 };
    let bodies = round_robin(&uniques, repeats);

    // Phase A: the single-process baseline — same worker config, same
    // duplicate-heavy stream, one kept-alive connection.
    let svc = Arc::new(Service::start(worker_cfg.clone()));
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind baseline daemon");
    let addr = server.local_addr().to_string();
    prime(&addr, &uniques);
    let single_rps = keepalive_rps(&addr, &bodies);
    server.stop();
    server.wait();
    svc.shutdown();

    // Phase B: the same stream through the router, workers' caches hot on
    // their hash slices.
    let fleet_cfg = FleetConfig {
        size: FLEET_SIZE,
        retry_budget: 2,
        upstream_timeout: Duration::from_secs(5),
        probe_interval: Duration::from_millis(40),
        backoff_base: Duration::from_millis(80),
        backoff_max: Duration::from_millis(800),
        breaker_threshold: 3,
        drain_timeout: Duration::from_secs(10),
        start_timeout: Duration::from_secs(20),
    };
    let fleet = Fleet::start(
        fleet_cfg,
        Box::new(InProcessLauncher::new(worker_cfg)),
        "127.0.0.1:0",
    )
    .expect("fleet starts");
    assert!(
        fleet.wait_ready(Duration::from_secs(30)),
        "fleet must become ready: {:?}",
        fleet.status()
    );
    let addr = fleet.local_addr().to_string();
    prime(&addr, &uniques);
    let fleet_rps = keepalive_rps(&addr, &bodies);

    // Phase C: the kill drill. The victim is the worker that owns
    // uniques[0]'s hash slice, so the burst is guaranteed to exercise
    // failover. One fresh connection per request so every outcome is
    // classified (an Err is a LOST request — the acceptance gate).
    let victim = home_slot(
        batsched_service::wire::xxh64(uniques[0].as_bytes()),
        FLEET_SIZE,
    );
    assert_eq!(
        pinned_worker(&addr, &uniques[0]),
        victim,
        "router and home_slot must agree on the owner"
    );
    let burst = round_robin(&uniques, if quick { 10 } else { 20 });
    let kill_at = burst.len() / 3;
    let [ok, unavailable, other, lost] = classify_burst(&addr, &burst, |i| {
        if i == kill_at {
            assert!(fleet.kill_worker(victim), "victim worker must be live");
        }
    });
    let ready_after_kill = fleet.wait_ready(Duration::from_secs(30));
    let status = fleet.status();
    let respawned = status.workers[victim].restarts >= 1;
    let report = FleetReport {
        workers: FLEET_SIZE,
        requests: bodies.len(),
        single_rps,
        fleet_rps,
        fleet_vs_single: fleet_rps / single_rps.max(1e-9),
        kill_burst_requests: burst.len(),
        kill_burst_ok: ok,
        kill_burst_unavailable: unavailable,
        kill_burst_other: other,
        lost,
        router_retries: status.retries,
        respawned,
        ready_after_kill,
    };
    fleet.shutdown();

    assert_eq!(
        report.kill_burst_ok
            + report.kill_burst_unavailable
            + report.kill_burst_other
            + report.lost,
        report.kill_burst_requests,
        "every kill-burst request must be classified"
    );
    if check {
        assert_eq!(
            report.lost, 0,
            "kill -9 must lose zero requests: {report:?}"
        );
        assert_eq!(
            report.kill_burst_other, 0,
            "kill-burst responses must be schedules or typed upstream_unavailable: {report:?}"
        );
        assert_eq!(
            report.kill_burst_ok, report.kill_burst_requests,
            "with two survivors and retry budget 2, every request must fail over: {report:?}"
        );
        assert!(
            report.respawned,
            "the killed worker must be respawned with backoff: {report:?}"
        );
        assert!(
            report.ready_after_kill,
            "the fleet must return to fully ready: {report:?}"
        );
        // The router proxies over loopback and this box is single-core,
        // so the fleet cannot win on hit traffic — the floor only guards
        // against pathological proxy overhead. Multi-core scaling is
        // unmeasured here (see ROADMAP's standing constraints).
        assert!(
            report.fleet_vs_single >= 0.15,
            "routed throughput collapsed vs single process: {report:?}"
        );
    }
    report
}

/// Integer `field` of every worker in a `/v1/fleet` topology, in slot
/// order (non-numeric values, e.g. `null` pids, are skipped).
fn worker_fields(topo: &str, field: &str) -> Vec<u64> {
    let Value::Arr(workers) = json_field(topo, "workers") else {
        panic!("no workers array: {topo}");
    };
    let numbers = workers.iter().filter_map(|w| match w.get(field)? {
        Value::Num(n) => Some(*n as u64),
        _ => None,
    });
    numbers.collect()
}

/// The external fleet drill (the `ci.sh fleet-smoke` check) against a
/// running `batsched fleet` daemon: warm burst with pinned routing, a
/// real `kill -9` of one worker mid-burst (zero lost requests), respawn
/// and `/readyz` recovery, a drain/restart drill asserting the
/// ready → not-ready → ready transition, then shutdown.
fn run_fleet_smoke(addr: &str) {
    // Wait out worker boot: /readyz answers 503 with per-worker reasons
    // until every worker probes ready.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (code, ready) = http_call(addr, "GET", "/readyz", "");
        if code == 200 {
            assert!(ready.contains("\"ready\":true"), "{ready}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fleet never became ready: {ready}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    let (code, topo) = http_call(addr, "GET", "/v1/fleet", "");
    assert_eq!(code, 200, "{topo}");
    let size = stats_counter(&topo, "size") as usize;
    assert!(size >= 2, "the drill needs at least two workers: {topo}");
    let pids = worker_fields(&topo, "pid");
    assert_eq!(
        pids.len(),
        size,
        "every ready worker must report a pid: {topo}"
    );

    // Warm burst down one kept-alive connection; duplicates must pin to
    // one worker per content hash.
    let uniques = synth_bodies(size as u64, 24, 5, 0xF1EE7);
    let mut client = connect(addr);
    for b in round_robin(&uniques, 6) {
        let (code, _, payload) = request(&mut client, "POST", "/v1/schedule", &b, false);
        assert_eq!(code, 200, "warm burst request failed: {payload}");
    }
    let victim = pinned_worker(addr, &uniques[0]);

    // kill -9 the owner of uniques[0]'s slice, then burst: every request
    // must be answered exactly once — failed over onto a survivor (the
    // requests are idempotent by content hash) or a typed 503.
    let killed = std::process::Command::new("kill")
        .args(["-9", &pids[victim].to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {} failed", pids[victim]);
    // The answering worker is NOT asserted: with a 100 ms backoff the
    // killed slot can legitimately respawn and re-claim its slice before
    // the burst ends. Exactly-once is the contract.
    let [ok, unavailable, other, lost] = classify_burst(addr, &round_robin(&uniques, 10), |_| {});
    assert_eq!(lost, 0, "kill -9 must lose zero requests");
    assert_eq!(
        other, 0,
        "kill-burst responses must be schedules or typed 503s"
    );
    assert_eq!(
        ok + unavailable,
        size * 10,
        "every kill-burst request must be answered exactly once"
    );
    assert_eq!(
        unavailable, 0,
        "with surviving workers and a retry budget, nothing should exhaust failover"
    );

    // The monitor must respawn the killed worker (new pid, restarts ≥ 1)
    // and the fleet must return to fully ready.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (code, topo) = http_call(addr, "GET", "/v1/fleet", "");
        assert_eq!(code, 200, "{topo}");
        let restarts = worker_fields(&topo, "restarts");
        if restarts.get(victim).copied().unwrap_or(0) >= 1 && topo.contains("\"ready\":true") {
            let new_pids = worker_fields(&topo, "pid");
            assert_eq!(new_pids.len(), size, "{topo}");
            assert_ne!(
                new_pids[victim], pids[victim],
                "the respawned worker must be a new process: {topo}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "killed worker was not respawned: {topo}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let (code, ready) = http_call(addr, "GET", "/readyz", "");
    assert_eq!(code, 200, "fleet must be ready after the respawn: {ready}");

    // Drain drill: /readyz must transition 200 → 503 (one worker down,
    // announced) → 200 (restarted and re-admitted), and the drained
    // requests keep answering from the rest of the fleet.
    let (code, payload) = http_call(addr, "POST", "/v1/fleet/drain/0", "");
    assert_eq!(
        code, 200,
        "drain of a ready worker must be accepted: {payload}"
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut saw_not_ready = false;
    loop {
        let (code, _) = http_call(addr, "GET", "/readyz", "");
        if code == 503 {
            saw_not_ready = true;
        }
        let (_, topo) = http_call(addr, "GET", "/v1/fleet", "");
        if saw_not_ready && code == 200 && topo.contains("\"ready\":true") {
            assert!(
                worker_fields(&topo, "drains").first().copied().unwrap_or(0) >= 1,
                "the drain must be accounted: {topo}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "drain/restart did not complete (saw_not_ready={saw_not_ready})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The router's own metrics surface must name the fleet series.
    let (code, metrics) = http_call(addr, "GET", "/v1/metrics", "");
    assert_eq!(code, 200, "{metrics}");
    for series in [
        "batsched_fleet_size",
        "batsched_fleet_requests_total",
        "batsched_fleet_worker_up",
        "batsched_fleet_worker_restarts_total",
    ] {
        assert!(metrics.contains(series), "{series} missing:\n{metrics}");
    }

    let (code, payload) = http_call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(code, 200, "{payload}");
    println!("FLEET SMOKE OK ({addr}, {size} workers, kill -9 lost 0 requests)");
}

fn run_benchmark(quick: bool, check: bool) {
    let svc_cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        cache_capacity: 512,
        ..ServiceConfig::default()
    };
    let cfg = ConfigDoc {
        quick,
        check,
        workers: svc_cfg.workers,
        queue_capacity: svc_cfg.queue_capacity,
        cache_capacity: svc_cfg.cache_capacity,
        cache_shards: svc_cfg.cache_shards,
    };

    // Wire-format admission A/B on the n-scaling instances.
    let wire = run_wire(quick, check);

    // Malformed stream: typed errors, no panics, daemon stays up.
    let svc = Service::start(svc_cfg);
    let bodies = malformed_stream();
    let mut unexpected_ok = 0usize;
    for body in &bodies {
        if matches!(svc.call(body.clone()).disposition, Disposition::Ok { .. }) {
            eprintln!("UNEXPECTED OK for malformed input: {body}");
            unexpected_ok += 1;
        }
    }
    // The daemon must still answer a good request afterwards.
    let after = svc.call(body_for(&g2(), 75.0));
    assert!(
        matches!(after.disposition, Disposition::Ok { .. }),
        "daemon must survive the malformed stream"
    );
    let malformed = MalformedReport {
        requests: bodies.len(),
        typed_errors: bodies.len() - unexpected_ok,
        unexpected_ok,
    };
    svc.shutdown();
    eprintln!(
        "malformed : {} reqs, {} typed errors",
        malformed.requests, malformed.typed_errors
    );
    assert_eq!(
        malformed.unexpected_ok, 0,
        "malformed inputs must all be rejected with typed errors"
    );

    // Chaos drill: injected faults, typed answers, degraded-mode recovery.
    let chaos = run_chaos(quick, check, None);
    eprintln!(
        "chaos     : {} reqs → {} ok / {} timeout / {} internal; {} panics, {} respawns, breaker {}→{} (recovered: {})",
        chaos.requests,
        chaos.ok,
        chaos.timeouts,
        chaos.internal_errors,
        chaos.worker_panics,
        chaos.worker_respawns,
        chaos.disk_breaker_trips,
        chaos.disk_rearms,
        chaos.recovered
    );

    // Fleet drill: router + 3 workers, kill one mid-burst, lose nothing.
    let fleet = run_fleet(quick, check);
    eprintln!(
        "fleet     : {} reqs, single {:.0} rps vs fleet {:.0} rps ({:.2}×); kill burst {} → {} ok / {} lost (respawned: {})",
        fleet.requests,
        fleet.single_rps,
        fleet.fleet_rps,
        fleet.fleet_vs_single,
        fleet.kill_burst_requests,
        fleet.kill_burst_ok,
        fleet.lost,
        fleet.respawned
    );

    let doc = BenchDoc {
        config: cfg,
        wire,
        malformed,
        chaos,
        fleet,
    };
    let json = serde_json::to_string_pretty(&doc).expect("bench doc serialises");
    std::fs::write("BENCH_service.json", format!("{json}\n")).expect("write BENCH_service.json");
    eprintln!("wrote BENCH_service.json");
}

// ------------------------------------------------------------- smoke mode

fn http_call(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let (code, _, payload) = request(&mut connect(addr), method, path, body, true);
    (code, payload)
}

fn run_smoke(addr: &str) {
    let body = body_for(&g2(), 75.0);
    let (code, cold) = http_call(addr, "POST", "/v1/schedule", &body);
    assert_eq!(code, 200, "schedule must answer 2xx: {cold}");
    let resp: ScheduleResponse =
        serde_json::from_str(&cold).expect("schedule response body parses");
    assert!(resp.makespan <= 75.0 + 1e-9);
    assert_eq!(resp.order.len(), 9);

    // A malformed request must come back as a typed 4xx, not kill the daemon.
    let (code, payload) = http_call(addr, "POST", "/v1/schedule", "{ nope");
    assert_eq!(code, 400, "{payload}");
    let err: ErrorResponse = serde_json::from_str(&payload).expect("typed error body");
    assert_eq!(err.error, "bad_json");

    // Keep-alive pass: several requests down ONE connection — the replay
    // must be a cache hit, interleaved stats/health must stay framed.
    let mut client = connect(addr);
    let (code, head, replay) = request(&mut client, "POST", "/v1/schedule", &body, false);
    assert_eq!(code, 200, "{replay}");
    assert!(
        head.contains("X-Cache: hit"),
        "keep-alive replay must hit: {head}"
    );
    assert_eq!(replay, cold, "hit must be bit-identical");
    let (code, _, stats) = request(&mut client, "GET", "/v1/stats", "", false);
    assert_eq!(code, 200);
    assert!(stats.contains("\"solved\":"), "{stats}");
    assert!(stats.contains("\"shard_occupancy\":"), "{stats}");
    let (code, _, health) = request(&mut client, "GET", "/healthz", "", false);
    assert_eq!(code, 200, "{health}");
    // Readiness: a healthy daemon with its full worker pool must be ready.
    let (code, _, ready) = request(&mut client, "GET", "/readyz", "", false);
    assert_eq!(
        code, 200,
        "ready daemon must answer 200 on /readyz: {ready}"
    );
    assert!(ready.contains("\"ready\":true"), "{ready}");

    // Binary wire format end-to-end: the binary spelling of the same
    // request must hit the cache entry the JSON cold solve created (one
    // canonical key across formats) and answer the identical JSON body.
    let bin = encode_request(&ScheduleRequest::new(g2(), 75.0));
    let r = client.call("POST", "/v1/schedule", &[SEND_BINARY], &bin, true);
    let r = r.expect("binary request");
    assert_eq!(r.status, 200, "binary request must answer 2xx");
    assert_eq!(
        r.header("x-cache"),
        Some("hit"),
        "binary spelling must share the JSON request's cache entry: {}",
        r.head
    );
    assert_eq!(
        std::str::from_utf8(&r.body).expect("JSON reply"),
        cold,
        "cross-format cache hit must be bit-identical"
    );
    // And an `Accept`-negotiated binary response must transcode back to
    // the exact canonical JSON body.
    let accept = format!("Accept: {BIN_CONTENT_TYPE}");
    let r = client.call("POST", "/v1/schedule", &[SEND_BINARY, &accept], &bin, false);
    let r = r.expect("binary-accept request");
    assert_eq!(r.status, 200, "binary-accept request must answer 2xx");
    assert_eq!(
        r.header("content-type"),
        Some(BIN_CONTENT_TYPE),
        "Accept-negotiated reply must declare the binary media type: {}",
        r.head
    );
    let resp = decode_response(&r.body).expect("binary response decodes");
    assert_eq!(
        serde_json::to_string(&resp).expect("response renders"),
        cold,
        "binary response must transcode losslessly to the canonical body"
    );

    let (code, payload) = http_call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(code, 200, "{payload}");
    println!("SMOKE OK ({addr})");
}

/// The post-restart probe: a daemon restarted onto a warm disk-cache file
/// must answer the same schedule request as a hit served from its disk
/// tier, bit-identical to a fresh solve of the same request.
fn run_smoke_warm(addr: &str) {
    let body = body_for(&g2(), 75.0);
    let mut client = connect(addr);
    let (code, head, payload) = request(&mut client, "POST", "/v1/schedule", &body, false);
    assert_eq!(code, 200, "warm schedule must answer 2xx: {payload}");
    assert!(
        head.contains("X-Cache: hit"),
        "restarted daemon must answer from its disk tier: {head}"
    );
    let resp: ScheduleResponse =
        serde_json::from_str(&payload).expect("schedule response body parses");
    assert!(resp.makespan <= 75.0 + 1e-9);

    let (code, _, stats) = request(&mut client, "GET", "/v1/stats", "", false);
    assert_eq!(code, 200);
    assert!(
        stats_counter(&stats, "disk_hits") >= 1,
        "stats must attribute the warm answer to the disk tier: {stats}"
    );
    assert!(
        stats_counter(&stats, "solved") == 0,
        "nothing should have been re-solved: {stats}"
    );

    // The binary spelling of the same request must be answered warm from
    // the same (JSON-era) disk tier, bit-identical to the JSON answer.
    let bin = encode_request(&ScheduleRequest::new(g2(), 75.0));
    let r = client.call("POST", "/v1/schedule", &[SEND_BINARY], &bin, false);
    let r = r.expect("binary request");
    assert_eq!(r.status, 200, "binary warm request must answer 2xx");
    assert_eq!(
        r.header("x-cache"),
        Some("hit"),
        "binary spelling must answer warm from the disk-seeded cache: {}",
        r.head
    );
    assert_eq!(
        std::str::from_utf8(&r.body).expect("JSON reply"),
        payload,
        "cross-format warm answer must be bit-identical"
    );

    let (code, payload) = http_call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(code, 200, "{payload}");
    println!("SMOKE WARM OK ({addr})");
}

/// The metrics smoke (the `ci.sh metrics-smoke` check): against a freshly
/// booted daemon, drive a known mix of traffic — one cold solve, two
/// cache hits, one malformed request — then scrape `GET /v1/metrics` and
/// assert the exposition is well-formed Prometheus text whose histogram
/// counts match exactly the requests this function sent.
fn run_metrics_smoke(addr: &str) {
    let mut client = connect(addr);

    // The daemon must be ready before we lean on it.
    let (code, _, ready) = request(&mut client, "GET", "/readyz", "", false);
    assert_eq!(code, 200, "booted daemon must be ready: {ready}");
    assert!(ready.contains("\"ready\":true"), "{ready}");

    // One cold solve carrying a client trace id: the id must be echoed.
    let body = body_for(&g2(), 75.0);
    let id = ["X-Request-Id: metrics-smoke-1"];
    let r = client.call("POST", "/v1/schedule", &id, body.as_bytes(), true);
    let r = r.expect("traced request");
    assert_eq!(r.status, 200);
    let echoed = r.header("x-request-id");
    assert_eq!(
        echoed,
        Some("metrics-smoke-1"),
        "client trace id must be echoed"
    );
    // Two cache hits and one malformed request (a typed 400 also gets its
    // id echoed and is still a served request as far as histograms go).
    for _ in 0..2 {
        let (code, head, _) = request(&mut client, "POST", "/v1/schedule", &body, false);
        assert_eq!(code, 200);
        assert!(head.contains("X-Cache: hit"), "{head}");
    }
    let id = ["X-Request-Id: metrics-smoke-bad"];
    let r = client.call("POST", "/v1/schedule", &id, b"{ nope", true);
    let r = r.expect("traced request");
    assert_eq!(r.status, 400);
    let echoed = r.header("x-request-id");
    assert_eq!(
        echoed,
        Some("metrics-smoke-bad"),
        "typed errors must echo the client trace id too"
    );
    let served = 4u64; // cold + 2 hits + malformed

    let (code, head, text) = request(&mut client, "GET", "/v1/metrics", "", true);
    assert_eq!(code, 200, "{text}");
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain"),
        "metrics must be text exposition: {head}"
    );

    // Well-formedness: every line is a comment or `sample value` with a
    // parseable float value; the exposition declares its metric types.
    let mut types = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let kind = decl.split_whitespace().nth(1).unwrap_or("");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown metric type: {line}"
            );
            types += 1;
            continue;
        }
        assert!(!line.starts_with('#'), "only # TYPE comments are emitted");
        let (sample, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed sample line: {line}"));
        assert!(!sample.is_empty(), "malformed sample line: {line}");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("non-numeric sample value: {line}"));
    }
    assert!(types >= 10, "exposition too thin: {types} # TYPE lines");

    // Histogram contract: cumulative buckets are monotone and the +Inf
    // bucket equals _count; _count equals the requests this smoke served.
    let buckets: Vec<f64> = text
        .lines()
        .filter(|l| l.starts_with("batsched_request_duration_us_bucket{le="))
        .map(|l| {
            l.rsplit_once(' ')
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or_else(|| panic!("malformed bucket line: {l}"))
        })
        .collect();
    assert!(buckets.len() >= 2, "request histogram has no buckets");
    assert!(
        buckets.windows(2).all(|w| w[0] <= w[1]),
        "cumulative buckets must be monotone: {buckets:?}"
    );
    let count = metrics_value(&text, "batsched_request_duration_us_count");
    assert_eq!(
        *buckets.last().expect("nonempty") as u64,
        count as u64,
        "+Inf bucket must equal _count"
    );
    assert_eq!(
        count as u64, served,
        "request histogram must count exactly the requests served"
    );
    for stage in [
        "read",
        "queue",
        "parse",
        "hash",
        "cache",
        "disk",
        "solve",
        "serialize",
        "write",
    ] {
        let stage_count = metrics_value(
            &text,
            &format!("batsched_stage_duration_us_count{{stage=\"{stage}\"}}"),
        );
        assert_eq!(
            stage_count as u64, served,
            "stage {stage} histogram must count every request served"
        );
    }
    // Exactly one cold solve ran, so the solve histogram is nonzero.
    let cold = metrics_value(&text, "batsched_solve_cold_duration_us_count");
    assert_eq!(cold as u64, 1, "exactly one cold solve must be recorded");
    assert!(
        metrics_value(&text, "batsched_solve_cold_duration_us_sum") > 0.0,
        "a real solve cannot take zero time"
    );
    assert_eq!(metrics_value(&text, "batsched_ready") as u64, 1);
    assert_eq!(
        metrics_value(&text, "batsched_cache_hits_total") as u64,
        2,
        "both replays must be cache hits"
    );

    let (code, payload) = http_call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(code, 200, "{payload}");
    println!("METRICS SMOKE OK ({addr}, {served} requests)");
}

/// Prints a drill's report on stderr as pretty JSON.
fn eprint_report(report: &impl Serialize) {
    let json = serde_json::to_string_pretty(report).expect("report serialises");
    eprintln!("{json}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let smoke = args.iter().any(|a| a == "--smoke");
    let smoke_warm = args.iter().any(|a| a == "--smoke-warm");
    let metrics_smoke = args.iter().any(|a| a == "--metrics-smoke");
    let chaos = args.iter().any(|a| a == "--chaos");
    let wire = args.iter().any(|a| a == "--wire");
    let fleet = args.iter().any(|a| a == "--fleet");
    let fleet_smoke = args.iter().any(|a| a == "--fleet-smoke");
    let addr = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1));
    // Exercised so the canonical-form constant stays a public contract.
    let _ = (DEFAULT_MAX_ITERATIONS, ModelSpec::default_rv());
    if wire {
        let points = run_wire(quick, check);
        eprint_report(&points);
        let at_200 = points.last().expect("three scaling points");
        println!(
            "WIRE OK ({} points, {:.1}× at n=200, keys match)",
            points.len(),
            at_200.speedup
        );
    } else if fleet_smoke {
        run_fleet_smoke(addr.expect("--fleet-smoke needs --addr <host:port>"));
    } else if fleet {
        let report = run_fleet(quick, check);
        eprint_report(&report);
        println!(
            "FLEET OK ({} workers, kill burst {} requests, {} lost, respawned: {})",
            report.workers, report.kill_burst_requests, report.lost, report.respawned
        );
    } else if chaos {
        let report = run_chaos(quick, check, addr.map(String::as_str));
        eprint_report(&report);
        println!(
            "CHAOS OK ({} requests, recovered: {})",
            report.requests, report.recovered
        );
    } else if smoke || smoke_warm || metrics_smoke {
        let addr = addr.expect("smoke modes need --addr <host:port>");
        if smoke_warm {
            run_smoke_warm(addr);
        } else if metrics_smoke {
            run_metrics_smoke(addr);
        } else {
            run_smoke(addr);
        }
    } else {
        run_benchmark(quick, check);
    }
}
