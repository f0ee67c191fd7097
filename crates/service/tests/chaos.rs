//! Chaos tests: every fault-tolerance path driven by injected faults —
//! solver panics (isolation + respawn), request deadlines (call-side and
//! queue-shed), the disk-tier circuit breaker (trip, degraded mode,
//! probe re-arm), worker-death regression at the HTTP frontend, graceful
//! shutdown under injected latency, and fault attribution through the
//! observability surfaces (span log, `/v1/metrics`, `/readyz`).

use batsched_service::http::client::Conn;
use batsched_service::prelude::*;
use batsched_service::{LogTarget, Service};
use batsched_taskgraph::paper::g2;
use batsched_taskgraph::synth::{layered, Rounding, ScalingScheme, TaskParams};
use batsched_taskgraph::TaskGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn g2_body() -> String {
    serde_json::to_string(&ScheduleRequest::new(g2(), 75.0)).expect("serialises")
}

/// A unique (per `seed`) request body, so every call is a cold solve.
fn unique_body(seed: u64) -> String {
    let params = TaskParams {
        current_range: (100.0, 900.0),
        duration_range: (2.0, 12.0),
        factors: vec![1.0, 0.8, 0.6],
        scheme: ScalingScheme::ReversedDuration,
        rounding: Rounding::PAPER,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let g: TaskGraph = layered(3, 4, 0.35, &params, &mut rng).expect("valid generator config");
    let lo = batsched_taskgraph::analysis::min_makespan(&g).value();
    let hi = batsched_taskgraph::analysis::max_makespan(&g).value();
    let deadline = lo + (hi - lo) * 0.7;
    serde_json::to_string(&ScheduleRequest::new(g, deadline)).expect("serialises")
}

fn tmp_disk(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("batsched_chaos_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let p = dir.join(format!("{name}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

// --------------------------------------------- panic isolation + respawn

#[test]
fn solver_panic_answers_typed_error_and_respawns_the_worker() {
    // The panic targets the g2 request specifically (key predicate on its
    // deadline spelling); everything else must keep working.
    let faults = FaultPlane::armed([FaultRule::always(FaultSite::SolverPanic)
        .key_contains("\"deadline\":75")
        .count(1)]);
    let svc = Service::try_start_with_faults(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        faults,
    )
    .unwrap();

    let reply = svc.call(g2_body());
    assert_eq!(reply.disposition, Disposition::Internal);
    let err: ErrorResponse = serde_json::from_str(&reply.body).expect("typed error body");
    assert_eq!(err.error, "internal");
    assert!(err.message.contains("panicked"), "{}", err.message);

    // The pool is back at full strength: the same request (fault budget
    // spent) and a fresh one both get real answers from the respawned
    // worker.
    let retried = svc.call(g2_body());
    assert_eq!(retried.disposition, Disposition::Ok { cached: false });
    let other = svc.call(unique_body(1));
    assert!(matches!(other.disposition, Disposition::Ok { .. }));

    let stats = svc.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.worker_respawns, 1);
    assert_eq!(stats.internal_errors, 1);
    svc.shutdown();
}

#[test]
fn a_panicking_binary_request_is_logged_as_binary() {
    // Regression: the panic path rebuilt its trace from the worker and the
    // queue wait only, so a binary request that panicked was logged as
    // JSON. One panic is answered in process, one over HTTP.
    let span_path = tmp_disk("panic_binary_spans");
    let faults = FaultPlane::armed([FaultRule::always(FaultSite::SolverPanic).count(2)]);
    let svc = Arc::new(
        Service::try_start_with_faults(
            ServiceConfig {
                workers: 1,
                log_json: Some(LogTarget::File(span_path.clone())),
                ..ServiceConfig::default()
            },
            faults,
        )
        .unwrap(),
    );
    let bin = encode_request(&ScheduleRequest::new(g2(), 75.0));

    let reply = svc.call_bytes(bin.clone(), WireFormat::Binary);
    assert_eq!(reply.disposition, Disposition::Internal, "{}", reply.body);
    assert_eq!(reply.trace.format, WireFormat::Binary);

    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let header = format!("Content-Type: {}", batsched_service::wire_bin::CONTENT_TYPE);
    let r = connect(server.local_addr())
        .call("POST", "/v1/schedule", &[&header], &bin, false)
        .expect("exchange");
    assert_eq!(r.status, 500);
    assert_eq!(svc.stats().worker_panics, 2);
    server.stop();
    server.wait();
    svc.shutdown();

    let raw = std::fs::read_to_string(&span_path).expect("span log written");
    let spans: Vec<&str> = raw.lines().filter(|l| l.contains("\"trace_id\"")).collect();
    assert_eq!(spans.len(), 1, "one span for the HTTP request: {raw}");
    assert!(
        spans[0].contains("\"outcome\":\"internal\""),
        "{}",
        spans[0]
    );
    assert!(
        spans[0].contains("\"wire_format\":\"binary\""),
        "{}",
        spans[0]
    );
    std::fs::remove_file(&span_path).unwrap();
}

#[test]
fn worker_death_never_drops_a_submitted_request() {
    // Regression: pre-isolation, a panicking worker dropped its reply
    // sender and (with the pool dead) later jobs sat in the queue forever.
    // Now every accepted request is answered: the panicking one with a
    // typed internal error, queued ones by the respawned worker.
    let faults = FaultPlane::armed([FaultRule::always(FaultSite::SolverPanic).count(1)]);
    let svc = Service::try_start_with_faults(
        ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            ..ServiceConfig::default()
        },
        faults,
    )
    .unwrap();
    let receivers: Vec<_> = (0..6)
        .map(|i| svc.submit(unique_body(100 + i)).expect("queue has room"))
        .collect();
    let mut internal = 0;
    for rx in receivers {
        let reply = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("every accepted request is answered");
        match reply.disposition {
            Disposition::Ok { .. } => {}
            Disposition::Internal => internal += 1,
            other => panic!("unexpected disposition {other:?}"),
        }
    }
    assert_eq!(internal, 1, "exactly the injected panic");
    assert_eq!(svc.stats().worker_respawns, 1);
    svc.shutdown();
}

// ----------------------------------------------------- request deadlines

#[test]
fn slow_solve_times_out_with_typed_error() {
    let faults = FaultPlane::armed([FaultRule::always(FaultSite::SolverLatency)
        .latency(Duration::from_millis(400))
        .count(1)]);
    let svc = Service::try_start_with_faults(
        ServiceConfig {
            workers: 1,
            request_timeout: Some(Duration::from_millis(80)),
            ..ServiceConfig::default()
        },
        faults,
    )
    .unwrap();
    let reply = svc.call(unique_body(2));
    assert_eq!(reply.disposition, Disposition::Timeout);
    let err: ErrorResponse = serde_json::from_str(&reply.body).expect("typed error body");
    assert_eq!(err.error, "timeout");
    assert_eq!(svc.stats().timeouts, 1);
    // The worker is not poisoned by a timed-out request: once the slow
    // solve drains, fresh requests answer fine.
    std::thread::sleep(Duration::from_millis(500));
    let fine = svc.call(unique_body(3));
    assert!(
        matches!(fine.disposition, Disposition::Ok { .. }),
        "{fine:?}"
    );
    svc.shutdown();
}

#[test]
fn jobs_expired_in_the_queue_are_shed_without_solving() {
    // One worker stuck 400ms; a 100ms deadline expires the queued jobs
    // behind it. The worker sheds them with a typed timeout instead of
    // solving work nobody is waiting for.
    let faults = FaultPlane::armed([FaultRule::always(FaultSite::SolverLatency)
        .latency(Duration::from_millis(400))
        .count(1)]);
    let svc = Service::try_start_with_faults(
        ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            request_timeout: Some(Duration::from_millis(100)),
            ..ServiceConfig::default()
        },
        faults,
    )
    .unwrap();
    // Raw submits bypass `call`'s own deadline wait, so the replies seen
    // here are exactly what the worker sent.
    let slow = svc.submit(unique_body(10)).unwrap();
    let queued: Vec<_> = (0..3)
        .map(|i| svc.submit(unique_body(20 + i)).unwrap())
        .collect();
    let first = slow.recv_timeout(Duration::from_secs(60)).unwrap();
    assert!(
        matches!(first.disposition, Disposition::Ok { .. }),
        "the slow request itself finishes (only its caller gave up): {first:?}"
    );
    let mut solved_count = 0;
    for rx in queued {
        let reply = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        match reply.disposition {
            Disposition::Timeout => {
                let err: ErrorResponse =
                    serde_json::from_str(&reply.body).expect("typed error body");
                assert_eq!(err.error, "timeout");
            }
            Disposition::Ok { .. } => solved_count += 1,
            other => panic!("unexpected disposition {other:?}"),
        }
    }
    assert!(
        solved_count < 3,
        "at least one queued job expired behind the 400ms solve"
    );
    svc.shutdown();
}

// ------------------------------------------------- disk breaker lifecycle

#[test]
fn disk_breaker_trips_to_degraded_mode_and_rearms() {
    let path = tmp_disk("breaker");
    // Appends fail 4 times, then heal. Threshold 2 trips the breaker on
    // the second error; probes burn the remaining budget and re-arm.
    let faults = FaultPlane::armed([FaultRule::always(FaultSite::DiskAppend).count(4)]);
    let svc = Service::try_start_with_faults(
        ServiceConfig {
            workers: 1,
            disk_path: Some(path.clone()),
            disk_breaker_threshold: 2,
            disk_probe_interval: Duration::from_millis(50),
            ..ServiceConfig::default()
        },
        faults,
    )
    .unwrap();

    // Two cold solves, two failed appends, breaker trips. The requests
    // themselves still succeed: a disk failure never fails a solvable
    // request.
    for seed in 0..2 {
        let reply = svc.call(unique_body(1000 + seed));
        assert_eq!(reply.disposition, Disposition::Ok { cached: false });
    }
    let stats = svc.stats();
    assert!(stats.disk_degraded, "breaker open after threshold errors");
    assert_eq!(stats.disk_breaker_trips, 1);
    assert_eq!(stats.disk_errors, 2);
    assert_eq!(stats.disk_entries, 0, "nothing reached the sick disk");

    // While degraded, traffic is served from memory + cold solves with no
    // disk I/O at all (the error counter only moves on probes).
    let reply = svc.call(unique_body(1100));
    assert_eq!(reply.disposition, Disposition::Ok { cached: false });

    // Probes (one per interval) burn the remaining fault budget and then
    // succeed, re-arming the tier.
    let mut rearmed = false;
    for seed in 0..100u64 {
        std::thread::sleep(Duration::from_millis(60));
        let reply = svc.call(unique_body(2000 + seed));
        assert!(matches!(reply.disposition, Disposition::Ok { .. }));
        if !svc.stats().disk_degraded {
            rearmed = true;
            break;
        }
    }
    assert!(rearmed, "probe interval must re-arm a healed disk");
    let stats = svc.stats();
    assert_eq!(stats.disk_rearms, 1);
    assert_eq!(stats.disk_errors, 4, "the whole fault budget was observed");
    assert!(stats.disk_entries > 0, "healed tier persists again");
    svc.shutdown();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn disk_read_errors_fall_through_to_a_cold_solve() {
    let path = tmp_disk("read_faults");
    // Warm the disk tier, then restart with every read failing: the warm
    // key must still be answered (by re-solving), never erred.
    let cfg = ServiceConfig {
        workers: 1,
        disk_path: Some(path.clone()),
        ..ServiceConfig::default()
    };
    let svc = Service::try_start(cfg.clone()).unwrap();
    let cold = svc.call(g2_body());
    assert_eq!(cold.disposition, Disposition::Ok { cached: false });
    svc.shutdown();

    let faults = FaultPlane::armed([FaultRule::always(FaultSite::DiskRead)]);
    let svc = Service::try_start_with_faults(cfg, faults).unwrap();
    let reply = svc.call(g2_body());
    assert_eq!(
        reply.disposition,
        Disposition::Ok { cached: false },
        "read error downgraded the hit to a solve, not an error"
    );
    assert_eq!(reply.body, cold.body, "re-solve is bit-identical");
    let stats = svc.stats();
    assert_eq!(stats.disk_hits, 0);
    assert!(stats.disk_errors >= 1);
    svc.shutdown();
    std::fs::remove_file(&path).unwrap();
}

// -------------------------------------------------- shutdown under load

#[test]
fn shutdown_under_load_answers_every_accepted_request_exactly_once() {
    let path = tmp_disk("drain");
    // Every solve carries injected latency, so shutdown arrives with jobs
    // both in flight and queued.
    let faults = FaultPlane::armed([
        FaultRule::always(FaultSite::SolverLatency).latency(Duration::from_millis(25))
    ]);
    let svc = Arc::new(
        Service::try_start_with_faults(
            ServiceConfig {
                workers: 2,
                queue_capacity: 32,
                disk_path: Some(path.clone()),
                ..ServiceConfig::default()
            },
            faults,
        )
        .unwrap(),
    );
    let receivers: Vec<_> = (0..12)
        .map(|i| svc.submit(unique_body(3000 + i)).expect("queue has room"))
        .collect();
    let accepted = receivers.len();
    let shutter = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.shutdown())
    };
    let mut answered = 0;
    for rx in receivers {
        let reply = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("graceful shutdown drains every accepted request");
        assert!(matches!(reply.disposition, Disposition::Ok { .. }));
        // Exactly once: the channel held one reply and is now closed.
        assert!(rx.try_recv().is_err(), "no duplicate replies");
        answered += 1;
    }
    shutter.join().unwrap();
    assert_eq!(answered, accepted);
    // Submissions after shutdown are refused, not hung.
    let refused = svc.call(unique_body(9999));
    assert_eq!(refused.disposition, Disposition::Overloaded);
    // The drain compacted the disk tier: a fresh open sees one dense
    // record per unique request.
    let tier = batsched_service::DiskTier::open(&path).unwrap();
    assert_eq!(tier.len(), accepted);
    drop(tier);
    std::fs::remove_file(&path).unwrap();
}

// --------------------------------------------------------- HTTP frontend

fn connect(addr: std::net::SocketAddr) -> Conn {
    Conn::connect(addr, Duration::from_secs(30)).expect("connect")
}

/// Sends one framed keep-alive POST and reads back (status, body).
fn http_roundtrip(c: &mut Conn, path: &str, body: &str) -> (u16, String) {
    let content_type = ["Content-Type: application/json"];
    let r = c.call("POST", path, &content_type, body.as_bytes(), true);
    let r = r.expect("exchange");
    (r.status, String::from_utf8(r.body).expect("utf8 body"))
}

/// One `Connection: close` GET on a fresh connection, returning (status,
/// body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let r = connect(addr).call("GET", path, &[], b"", false);
    let r = r.expect("exchange");
    (r.status, String::from_utf8(r.body).expect("utf8 body"))
}

#[test]
fn http_keepalive_connection_survives_a_worker_panic() {
    // Regression for the silent-hang: a panicking worker behind a
    // keep-alive connection must produce a well-framed 500, and the same
    // connection must keep working against the respawned pool.
    let faults = FaultPlane::armed([FaultRule::always(FaultSite::SolverPanic)
        .key_contains("\"deadline\":75")
        .count(1)]);
    let svc = Arc::new(
        Service::try_start_with_faults(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            faults,
        )
        .unwrap(),
    );
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut stream = connect(addr);

    let (status, body) = http_roundtrip(&mut stream, "/v1/schedule", &g2_body());
    assert_eq!(status, 500);
    let err: ErrorResponse = serde_json::from_str(&body).expect("typed error body");
    assert_eq!(err.error, "internal");
    assert!(err.message.contains("panicked"), "{}", err.message);

    // Same connection, next request: answered by the respawned worker.
    let (status, body) = http_roundtrip(&mut stream, "/v1/schedule", &g2_body());
    assert_eq!(status, 200);
    assert!(body.contains("\"sigma\""), "{body}");

    let (status, stats_body) = http_get(addr, "/v1/stats");
    assert_eq!(status, 200);
    assert!(stats_body.contains("\"worker_panics\":1"), "{stats_body}");
    assert!(stats_body.contains("\"worker_respawns\":1"), "{stats_body}");

    drop(stream);
    server.stop();
}

// ------------------------------------- fault attribution in observability

/// The unsigned integer field `field` of a JSON span line.
fn span_field(line: &str, field: &str) -> u64 {
    match serde::json::parse(line)
        .ok()
        .and_then(|v| v.get(field).cloned())
    {
        Some(serde_json::Value::Num(n)) => n as u64,
        _ => panic!("span field {field} not an integer: {line}"),
    }
}

/// Extracts one sample's value from a Prometheus text exposition.
fn metric(text: &str, sample: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            (name == sample).then(|| value.parse::<f64>().expect("numeric sample") as u64)
        })
        .unwrap_or_else(|| panic!("metric {sample} missing from exposition"))
}

#[test]
fn injected_faults_are_attributed_in_span_log_and_metrics() {
    let disk = tmp_disk("obs_faults_disk");
    let span_path = tmp_disk("obs_faults_spans");

    // Three scripted faults, each aimed at a specific request: a solver
    // panic on the g2 body, 400 ms of latency (past the 150 ms deadline)
    // on one unique body, and two failing disk appends (threshold 2, so
    // the second trips the breaker).
    let slow = unique_body(60);
    let at = slow
        .find("\"deadline\":")
        .expect("body spells its deadline");
    let slow_key = slow[at..(at + 20).min(slow.len())].to_string();
    let faults = FaultPlane::armed([
        FaultRule::always(FaultSite::SolverPanic)
            .key_contains("\"deadline\":75")
            .count(1),
        FaultRule::always(FaultSite::SolverLatency)
            .key_contains(&slow_key)
            .latency(Duration::from_millis(400))
            .count(1),
        FaultRule::always(FaultSite::DiskAppend).count(2),
    ]);
    let svc = Arc::new(
        Service::try_start_with_faults(
            ServiceConfig {
                workers: 1,
                request_timeout: Some(Duration::from_millis(150)),
                disk_path: Some(disk.clone()),
                disk_breaker_threshold: 2,
                disk_probe_interval: Duration::from_secs(3600),
                log_json: Some(LogTarget::File(span_path.clone())),
                ..ServiceConfig::default()
            },
            faults,
        )
        .unwrap(),
    );
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut stream = connect(addr);

    // Request 1: the injected panic answers a typed 500.
    let (status, _) = http_roundtrip(&mut stream, "/v1/schedule", &g2_body());
    assert_eq!(status, 500);
    // Request 2: injected latency blows the deadline, a typed 504. The
    // worker finishes the solve anyway; its disk append burns fault #1.
    let (status, _) = http_roundtrip(&mut stream, "/v1/schedule", &slow);
    assert_eq!(status, 504);
    std::thread::sleep(Duration::from_millis(600));
    // Request 3: a clean cold solve whose append burns fault #2 and trips
    // the breaker — the request itself still succeeds.
    let (status, _) = http_roundtrip(&mut stream, "/v1/schedule", &unique_body(61));
    assert_eq!(status, 200);

    // Degraded mode is a readiness failure, not a liveness one.
    let (status, ready) = http_get(addr, "/readyz");
    assert_eq!(status, 503, "tripped breaker must fail readiness: {ready}");
    assert!(ready.contains("disk_degraded"), "{ready}");
    let (status, health) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "liveness is unaffected: {health}");

    // Every injected fault shows up in the scraped series.
    let (status, text) = http_get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    assert_eq!(metric(&text, "batsched_worker_panics_total"), 1);
    assert_eq!(metric(&text, "batsched_internal_errors_total"), 1);
    assert_eq!(metric(&text, "batsched_timeouts_total"), 1);
    assert_eq!(metric(&text, "batsched_disk_errors_total"), 2);
    assert_eq!(metric(&text, "batsched_disk_breaker_trips_total"), 1);
    assert_eq!(metric(&text, "batsched_disk_breaker_open"), 1);
    assert_eq!(metric(&text, "batsched_ready"), 0);
    assert_eq!(
        metric(&text, "batsched_fault_injected_total"),
        4,
        "panic + latency + two disk appends"
    );
    // Histogram counts: three requests served end-to-end, three handled
    // by the worker (the timed-out solve still ran to completion).
    assert_eq!(metric(&text, "batsched_request_duration_us_count"), 3);
    assert_eq!(
        metric(&text, "batsched_stage_duration_us_count{stage=\"solve\"}"),
        3
    );

    drop(stream);
    server.stop();
    server.wait();
    svc.shutdown();

    // The span log: exactly one span per HTTP request, each attributing
    // its outcome (and, where the trace survived, its stages) correctly.
    let raw = std::fs::read_to_string(&span_path).expect("span log written");
    let spans: Vec<&str> = raw.lines().filter(|l| l.contains("\"trace_id\"")).collect();
    assert_eq!(spans.len(), 3, "one span per request: {raw}");

    assert!(
        spans[0].contains("\"outcome\":\"internal\""),
        "{}",
        spans[0]
    );
    assert!(spans[0].contains("\"status\":500"), "{}", spans[0]);
    assert!(spans[0].contains("\"level\":\"error\""), "{}", spans[0]);
    assert!(spans[0].contains("\"injected\":true"), "{}", spans[0]);

    assert!(spans[1].contains("\"outcome\":\"timeout\""), "{}", spans[1]);
    assert!(spans[1].contains("\"status\":504"), "{}", spans[1]);
    assert!(spans[1].contains("\"level\":\"warn\""), "{}", spans[1]);

    assert!(spans[2].contains("\"outcome\":\"solved\""), "{}", spans[2]);
    assert!(spans[2].contains("\"status\":200"), "{}", spans[2]);
    assert!(
        spans[2].contains("\"injected\":true"),
        "the failed append marks the request fault-involved: {}",
        spans[2]
    );
    assert!(span_field(spans[2], "solve_us") > 0, "{}", spans[2]);
    assert!(
        span_field(spans[2], "disk_us") > 0,
        "the failed append attempt is attributed to the disk stage: {}",
        spans[2]
    );
    // Stage attribution reconciles: the staged times (plus `other_us`)
    // sum exactly to the end-to-end latency.
    let staged = [
        "read_us",
        "queue_us",
        "parse_us",
        "hash_us",
        "cache_us",
        "disk_us",
        "solve_us",
        "serialize_us",
        "write_us",
        "other_us",
    ]
    .iter()
    .map(|f| span_field(spans[2], f))
    .sum::<u64>();
    assert_eq!(staged, span_field(spans[2], "total_us"), "{}", spans[2]);

    std::fs::remove_file(&disk).unwrap();
    std::fs::remove_file(&span_path).unwrap();
}

#[test]
fn http_timeout_maps_to_504_and_keeps_the_connection() {
    let faults = FaultPlane::armed([FaultRule::always(FaultSite::SolverLatency)
        .latency(Duration::from_millis(400))
        .count(1)]);
    let svc = Arc::new(
        Service::try_start_with_faults(
            ServiceConfig {
                workers: 1,
                request_timeout: Some(Duration::from_millis(80)),
                ..ServiceConfig::default()
            },
            faults,
        )
        .unwrap(),
    );
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut stream = connect(addr);

    let (status, body) = http_roundtrip(&mut stream, "/v1/schedule", &unique_body(40));
    assert_eq!(status, 504);
    let err: ErrorResponse = serde_json::from_str(&body).expect("typed error body");
    assert_eq!(err.error, "timeout");

    // Well-framed: the same connection serves the next request once the
    // slow solve has drained.
    std::thread::sleep(Duration::from_millis(500));
    let (status, body) = http_roundtrip(&mut stream, "/v1/schedule", &unique_body(41));
    assert_eq!(status, 200, "{body}");

    drop(stream);
    server.stop();
}
