//! Observability contract tests: trace-id propagation over HTTP (client
//! ids echoed — including on typed errors — and generated ids unique
//! across keep-alive pipelining), the one-span-per-request contract with
//! exact stage reconciliation, the pinned `/v1/metrics` inventory and its
//! agreement with `/v1/stats`, and property tests pinning the log-bucket
//! histogram to a sorted-vec oracle.

use batsched_service::http::client::{Conn, Response};
use batsched_service::prelude::*;
use batsched_service::wire::fnv1a64;
use batsched_service::{HistogramSnapshot, LogTarget, Service, Stage, BUCKET_BOUNDS_US};
use batsched_taskgraph::paper::g2;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn g2_body() -> String {
    serde_json::to_string(&ScheduleRequest::new(g2(), 75.0)).expect("serialises")
}

fn tmp_file(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("batsched_observability_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let p = dir.join(format!("{name}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn connect(addr: SocketAddr) -> Conn {
    Conn::connect(addr, Duration::from_secs(30)).expect("connect")
}

/// Sends one framed request with optional extra header lines; keep-alive
/// unless `close`. The response body must be UTF-8.
fn roundtrip(c: &mut Conn, path: &str, headers: &[&str], body: &str, close: bool) -> Response {
    let r = c.call("POST", path, headers, body.as_bytes(), !close);
    let r = r.expect("exchange");
    std::str::from_utf8(&r.body).expect("utf8");
    r
}

/// The echoed `X-Request-Id`.
fn request_id(r: &Response) -> String {
    r.header("x-request-id")
        .unwrap_or_else(|| panic!("no X-Request-Id in head: {}", r.head))
        .to_string()
}

// ------------------------------------------------- trace-id propagation

#[test]
fn client_request_ids_are_echoed_even_on_typed_errors() {
    let svc = Arc::new(Service::start(ServiceConfig::default()));
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut stream = connect(server.local_addr());

    // A good request: the client's id comes back verbatim.
    let r = roundtrip(
        &mut stream,
        "/v1/schedule",
        &["X-Request-Id: client-abc-123"],
        &g2_body(),
        false,
    );
    assert_eq!(r.status, 200);
    assert_eq!(request_id(&r), "client-abc-123");

    // A malformed request: the typed 400 still carries the client's id.
    let r = roundtrip(
        &mut stream,
        "/v1/schedule",
        &["X-Request-Id: client-bad-7"],
        "{ nope",
        false,
    );
    assert_eq!(r.status, 400);
    let err: ErrorResponse = serde_json::from_str(&r.text()).expect("typed error");
    assert_eq!(err.error, "bad_json");
    assert_eq!(request_id(&r), "client-bad-7");

    // An unusable id (embedded whitespace) is ignored, not rejected: the
    // request succeeds under a server-generated id instead.
    let r = roundtrip(
        &mut stream,
        "/v1/schedule",
        &["X-Request-Id: has a space"],
        &g2_body(),
        true,
    );
    assert_eq!(r.status, 200);
    let generated = request_id(&r);
    assert_ne!(generated, "has a space");
    assert!(
        generated.contains('-'),
        "generated ids are hash-seq: {generated}"
    );

    drop(stream);
    server.stop();
    server.wait();
    svc.shutdown();
}

#[test]
fn generated_ids_are_unique_across_keepalive_pipelining() {
    let svc = Arc::new(Service::start(ServiceConfig::default()));
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut stream = connect(server.local_addr());

    // The same body replayed down one connection: every response gets its
    // own id (the sequence part), while the hash prefix — derived from
    // the body — stays identical, so replays correlate.
    let body = g2_body();
    let mut ids = Vec::new();
    for i in 0..8 {
        let r = roundtrip(&mut stream, "/v1/schedule", &[], &body, i == 7);
        assert_eq!(r.status, 200);
        ids.push(request_id(&r));
    }
    let unique: std::collections::HashSet<&String> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "duplicate generated ids: {ids:?}");
    let prefixes: std::collections::HashSet<&str> = ids
        .iter()
        .map(|id| id.split_once('-').expect("hash-seq form").0)
        .collect();
    assert_eq!(
        prefixes.len(),
        1,
        "same body must share a hash prefix: {ids:?}"
    );

    drop(stream);
    server.stop();
    server.wait();
    svc.shutdown();
}

// ------------------------------------------------- span-per-request contract

#[test]
fn one_span_per_request_with_exact_stage_reconciliation() {
    let span_path = tmp_file("span_contract");
    let svc = Arc::new(Service::start(ServiceConfig {
        log_json: Some(LogTarget::File(span_path.clone())),
        ..ServiceConfig::default()
    }));
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut stream = connect(server.local_addr());

    let r = roundtrip(
        &mut stream,
        "/v1/schedule",
        &["X-Request-Id: span-contract-1"],
        &g2_body(),
        true,
    );
    assert_eq!(r.status, 200);
    assert_eq!(request_id(&r), "span-contract-1");

    drop(stream);
    server.stop();
    server.wait();
    svc.shutdown();

    let raw = std::fs::read_to_string(&span_path).expect("span log written");
    let spans: Vec<&str> = raw.lines().filter(|l| l.contains("\"trace_id\"")).collect();
    assert_eq!(spans.len(), 1, "exactly one span per request: {raw}");
    let span = spans[0];
    assert!(span.contains("\"trace_id\":\"span-contract-1\""), "{span}");
    assert!(span.contains("\"outcome\":\"solved\""), "{span}");
    assert!(span.contains("\"level\":\"info\""), "{span}");

    // The stage durations (plus the explicit `other_us` remainder) sum
    // exactly to the end-to-end latency — stronger than the 5% budget.
    let field = |name: &str| -> u64 {
        let tag = format!("\"{name}\":");
        let at = span.find(&tag).unwrap_or_else(|| panic!("{name}: {span}"));
        span[at + tag.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("integer field")
    };
    let staged: u64 = [
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
    .map(|f| field(f))
    .sum();
    assert_eq!(staged, field("total_us"), "{span}");
    assert!(
        field("solve_us") > 0,
        "a cold solve takes real time: {span}"
    );

    std::fs::remove_file(&span_path).unwrap();
}

#[test]
fn jsonl_frontend_spans_one_line_per_request() {
    let span_path = tmp_file("jsonl_spans");
    let svc = Service::start(ServiceConfig {
        log_json: Some(LogTarget::File(span_path.clone())),
        ..ServiceConfig::default()
    });
    // Two identical lines: two spans, distinct ids, shared hash prefix.
    let req = g2_body();
    let input = format!("{req}\n{req}\n");
    let mut out = Vec::new();
    let summary = run_jsonl(&svc, input.as_bytes(), &mut out).expect("jsonl session");
    assert_eq!(summary.requests, 2);
    svc.shutdown();

    let raw = std::fs::read_to_string(&span_path).expect("span log written");
    let ids: Vec<String> = raw
        .lines()
        .filter(|l| l.contains("\"trace_id\""))
        .map(|l| {
            let at = l.find("\"trace_id\":\"").expect("id field") + "\"trace_id\":\"".len();
            l[at..]
                .split('"')
                .next()
                .expect("closed string")
                .to_string()
        })
        .collect();
    assert_eq!(ids.len(), 2, "{raw}");
    assert_ne!(ids[0], ids[1], "replays need distinct ids");
    assert_eq!(
        ids[0].split_once('-').map(|(h, _)| h),
        ids[1].split_once('-').map(|(h, _)| h),
        "identical bodies share a hash prefix"
    );
    std::fs::remove_file(&span_path).unwrap();
}

#[test]
fn generated_ids_carry_the_body_hash_and_duplicates_take_the_alias_path() {
    let span_path = tmp_file("alias_spans");
    let svc = Arc::new(Service::start(ServiceConfig {
        log_json: Some(LogTarget::File(span_path.clone())),
        ..ServiceConfig::default()
    }));
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut stream = connect(server.local_addr());

    // Each body twice, byte for byte, in both wire formats. The first JSON
    // request solves, the first binary one hits the canonical entry, and
    // each duplicate is replayed from the alias index without decoding.
    let req = ScheduleRequest::new(batsched_taskgraph::paper::g3(), 230.0);
    let json = serde_json::to_string(&req)
        .expect("serialises")
        .into_bytes();
    let bin = encode_request(&req);
    let sent = [
        (&json, "application/json"),
        (&json, "application/json"),
        (&bin, batsched_service::wire_bin::CONTENT_TYPE),
        (&bin, batsched_service::wire_bin::CONTENT_TYPE),
    ];
    for (k, (body, content_type)) in sent.iter().enumerate() {
        let header = format!("Content-Type: {content_type}");
        let r = stream
            .call("POST", "/v1/schedule", &[&header], body, k + 1 < sent.len())
            .expect("exchange");
        assert_eq!(r.status, 200, "{}", r.text());
        let id = request_id(&r);
        let prefix = id.split_once('-').expect("hash-seq form").0;
        assert_eq!(prefix, format!("{:016x}", fnv1a64(body)), "{id}");
    }
    // The edge keyed the alias index as the in-process entry point does:
    // a third copy through `call_bytes` takes the alias path too.
    for (body, format) in [(&json, WireFormat::Json), (&bin, WireFormat::Binary)] {
        let direct = svc.call_bytes(body.clone(), format);
        assert!(matches!(
            direct.disposition,
            Disposition::Ok { cached: true }
        ));
        assert_eq!(
            direct.trace.us(Stage::Parse) + direct.trace.us(Stage::Hash),
            0,
            "{format:?}"
        );
    }

    drop(stream);
    server.stop();
    server.wait();
    svc.shutdown();

    let raw = std::fs::read_to_string(&span_path).expect("span log written");
    let spans: Vec<&str> = raw.lines().filter(|l| l.contains("\"trace_id\"")).collect();
    assert_eq!(spans.len(), sent.len(), "{raw}");
    let field = |span: &str, name: &str| -> u64 {
        let tag = format!("\"{name}\":");
        let at = span.find(&tag).unwrap_or_else(|| panic!("{name}: {span}"));
        span[at + tag.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("integer field")
    };
    for pair in spans.chunks(2) {
        let (first, dup) = (pair[0], pair[1]);
        assert!(
            field(first, "parse_us") > 0,
            "the first copy is decoded: {first}"
        );
        assert!(dup.contains("\"outcome\":\"hit\""), "{dup}");
        assert_eq!(field(dup, "parse_us") + field(dup, "hash_us"), 0, "{dup}");
    }
    std::fs::remove_file(&span_path).unwrap();
}

// ------------------------------------------------- telemetry surface pin

/// Every series a standalone daemon's `/v1/metrics` exports, in exposition
/// order: `name kind` plus each label set its samples carry (histogram
/// `le` buckets aside). A scraper sees exactly this.
const METRICS_INVENTORY: &[&str] = &[
    "batsched_received_total counter",
    "batsched_solved_total counter",
    "batsched_cache_hits_total counter",
    "batsched_disk_hits_total counter",
    "batsched_cache_misses_total counter",
    "batsched_client_errors_total counter",
    "batsched_internal_errors_total counter",
    "batsched_rejected_total counter",
    "batsched_timeouts_total counter",
    "batsched_worker_panics_total counter",
    "batsched_worker_respawns_total counter",
    "batsched_disk_errors_total counter",
    "batsched_disk_breaker_trips_total counter",
    "batsched_disk_rearms_total counter",
    "batsched_fault_injected_total counter",
    "batsched_spans_dropped_total counter",
    "batsched_requests_by_format counter format=\"binary\" format=\"json\"",
    "batsched_queue_depth gauge",
    "batsched_workers_live gauge",
    "batsched_workers_target gauge",
    "batsched_disk_breaker_open gauge",
    "batsched_cache_entries gauge",
    "batsched_cache_capacity gauge",
    "batsched_disk_entries gauge",
    "batsched_ready gauge",
    "batsched_solver_windows_total counter",
    "batsched_solver_rows_full_total counter",
    "batsched_solver_rows_carried_total counter",
    "batsched_solver_journal_promotions_total counter",
    "batsched_solver_journal_rollbacks_total counter",
    "batsched_solver_candidates_total counter",
    "batsched_solver_stop_probes_total counter",
    "batsched_solver_sigma_evals_total counter",
    "batsched_solver_sigma_reused_total counter",
    "batsched_solver_sigma_fresh_total counter",
    "batsched_request_duration_us histogram",
    "batsched_stage_duration_us histogram stage=\"cache\" stage=\"disk\" stage=\"hash\" \
     stage=\"parse\" stage=\"queue\" stage=\"read\" stage=\"serialize\" stage=\"solve\" \
     stage=\"write\"",
    "batsched_solve_cold_duration_us histogram",
];

/// `/v1/stats` fields and the `/v1/metrics` sample each must equal.
const STATS_AS_METRICS: &[(&str, &str)] = &[
    ("received", "batsched_received_total"),
    (
        "binary_requests",
        "batsched_requests_by_format{format=\"binary\"}",
    ),
    ("solved", "batsched_solved_total"),
    ("cache_hits", "batsched_cache_hits_total"),
    ("disk_hits", "batsched_disk_hits_total"),
    ("cache_misses", "batsched_cache_misses_total"),
    ("client_errors", "batsched_client_errors_total"),
    ("internal_errors", "batsched_internal_errors_total"),
    ("rejected", "batsched_rejected_total"),
    ("timeouts", "batsched_timeouts_total"),
    ("worker_panics", "batsched_worker_panics_total"),
    ("worker_respawns", "batsched_worker_respawns_total"),
    ("disk_errors", "batsched_disk_errors_total"),
    ("disk_breaker_trips", "batsched_disk_breaker_trips_total"),
    ("disk_rearms", "batsched_disk_rearms_total"),
    ("faults_injected", "batsched_fault_injected_total"),
    ("spans_dropped", "batsched_spans_dropped_total"),
    ("queue_depth", "batsched_queue_depth"),
    ("workers_live", "batsched_workers_live"),
    ("workers", "batsched_workers_target"),
    ("cache_len", "batsched_cache_entries"),
    ("cache_capacity", "batsched_cache_capacity"),
    ("disk_entries", "batsched_disk_entries"),
];

/// The `name kind label-sets` line of every `# TYPE` in an exposition, in
/// order.
fn inventory(text: &str) -> Vec<String> {
    let mut series: Vec<(String, BTreeSet<String>)> = Vec::new();
    for line in text.lines() {
        if let Some(declared) = line.strip_prefix("# TYPE ") {
            series.push((declared.to_string(), BTreeSet::new()));
            continue;
        }
        let (sample, _) = line.rsplit_once(' ').expect("`name value` sample");
        let labels = sample.split_once('{').map_or("", |(_, l)| l);
        let labels = labels.trim_end_matches('}').split(',');
        let (_, sets) = series.last_mut().expect("sample after its # TYPE");
        sets.extend(
            labels
                .filter(|l| !l.is_empty() && !l.starts_with("le="))
                .map(String::from),
        );
    }
    series
        .into_iter()
        .map(|(declared, sets)| {
            let mut line = declared;
            for set in sets {
                line.push(' ');
                line.push_str(&set);
            }
            line
        })
        .collect()
}

#[test]
fn metrics_inventory_is_pinned_and_agrees_with_stats() {
    let svc = Arc::new(Service::start(ServiceConfig::default()));
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let mut c = connect(server.local_addr());
    // One request of each outcome: solved, hit, client error.
    for (body, status) in [(g2_body(), 200), (g2_body(), 200), ("{ nope".into(), 400)] {
        assert_eq!(
            roundtrip(&mut c, "/v1/schedule", &[], &body, false).status,
            status
        );
    }
    let metrics = c
        .call("GET", "/v1/metrics", &[], b"", true)
        .expect("scrape");
    let stats = c.call("GET", "/v1/stats", &[], b"", true).expect("stats");
    let ready = c.call("GET", "/readyz", &[], b"", true).expect("readyz");
    assert_eq!(ready.status, 200);
    let rescrape = c
        .call("GET", "/v1/metrics", &[], b"", false)
        .expect("second scrape");
    drop(server);
    svc.shutdown();

    let metrics = String::from_utf8(metrics.body).expect("utf8 metrics");
    // The HTTP frontend observes `read` and `write` once per answered
    // `/v1/schedule` request; the stats, metrics and readiness routes add
    // nothing.
    let rescrape = String::from_utf8(rescrape.body).expect("utf8 metrics");
    for text in [&metrics, &rescrape] {
        for stage in ["read", "write"] {
            let sample = format!("batsched_stage_duration_us_count{{stage=\"{stage}\"}} 3");
            assert!(text.lines().any(|l| l == sample), "{sample}: {text}");
        }
    }
    let found = inventory(&metrics);
    assert_eq!(found, METRICS_INVENTORY, "{metrics}");
    let names: BTreeSet<&str> = found.iter().filter_map(|l| l.split(' ').next()).collect();
    assert_eq!(names.len(), found.len(), "a # TYPE line repeats: {found:?}");

    let stats = std::str::from_utf8(&stats.body).expect("utf8 stats");
    let stats = serde::json::parse(stats).expect("stats JSON");
    for (field, sample) in STATS_AS_METRICS {
        let Some(serde_json::Value::Num(stat)) = stats.get(field) else {
            panic!("stats lacks {field}: {stats:?}");
        };
        let exported = metrics
            .lines()
            .find_map(|l| l.strip_prefix(sample)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {sample} sample: {metrics}"));
        assert_eq!(exported, stat.to_string(), "{field} vs {sample}");
    }
    for driven in ["solved", "cache_hits", "client_errors"] {
        assert_eq!(
            stats.get(driven),
            Some(&serde_json::Value::Num(1.0)),
            "{driven}"
        );
    }
}

// ---------------------------------------------- histogram vs oracle props

/// Bucket bounds `[lower, upper]` containing the value `v` (upper is
/// +Inf for the overflow bucket).
fn bucket_bounds(v: u64) -> (f64, f64) {
    let i = BUCKET_BOUNDS_US.partition_point(|&b| b < v);
    let lower = if i == 0 {
        0.0
    } else {
        BUCKET_BOUNDS_US[i - 1] as f64
    };
    let upper = if i == BUCKET_BOUNDS_US.len() {
        f64::INFINITY
    } else {
        BUCKET_BOUNDS_US[i] as f64
    };
    (lower, upper)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The histogram quantile lands inside the bucket that holds the
    /// sorted-vec oracle's value — the estimator's documented error
    /// bound — for arbitrary value sets and quantiles.
    #[test]
    fn quantile_lands_in_the_oracle_bucket(
        values in prop::collection::vec(0u64..100_000_000, 1..300),
        q in 0.0f64..1.0,
    ) {
        let mut h = HistogramSnapshot::new();
        for &v in &values {
            h.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        // The implementation targets rank max(q·n, 1); the oracle is the
        // value at that rank (1-based, ceiling).
        let target = (q * sorted.len() as f64).max(1.0);
        let rank = (target.ceil() as usize).clamp(1, sorted.len());
        let oracle = sorted[rank - 1];
        let est = h.quantile(q);
        let (lower, upper) = bucket_bounds(oracle);
        // Overflow reports the last finite boundary, otherwise the
        // estimate interpolates within the oracle's bucket.
        let est_ok = if upper.is_infinite() {
            (est - BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1] as f64).abs() < 1e-9
        } else {
            est >= lower && est <= upper
        };
        prop_assert!(
            est_ok,
            "q={q}: estimate {est} vs oracle {oracle} in [{lower}, {upper}]"
        );
    }

    /// Merging two snapshots is exactly equivalent to observing the
    /// concatenated value stream, and the +Inf invariant (bucket counts
    /// sum to `count`) holds throughout.
    #[test]
    fn merge_equals_concatenated_observation(
        a in prop::collection::vec(0u64..100_000_000, 0..150),
        b in prop::collection::vec(0u64..100_000_000, 0..150),
    ) {
        let mut ha = HistogramSnapshot::new();
        for &v in &a {
            ha.observe(v);
        }
        let mut hb = HistogramSnapshot::new();
        for &v in &b {
            hb.observe(v);
        }
        let mut merged = ha.clone();
        merged.merge(&hb);
        let mut oracle = HistogramSnapshot::new();
        for &v in a.iter().chain(&b) {
            oracle.observe(v);
        }
        prop_assert_eq!(&merged, &oracle);
        prop_assert_eq!(merged.buckets.iter().sum::<u64>(), merged.count);
        prop_assert_eq!(
            merged.sum_us,
            a.iter().chain(&b).sum::<u64>()
        );
    }
}
