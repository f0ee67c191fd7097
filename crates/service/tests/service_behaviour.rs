//! Behavioural tests for the scheduling service: wire-format round trips
//! (property-based), cache-hit bit-equivalence, multi-client concurrency,
//! malformed-input robustness, backpressure, and the HTTP frontend.

use batsched_core::{Prof, SolverWorkspace};
use batsched_service::http::client::Conn;
use batsched_service::prelude::*;
use batsched_service::wire::{self, ScheduleResponse};
use batsched_service::{Service, Stage};
use batsched_taskgraph::paper::{g2, g3};
use batsched_taskgraph::synth::{layered, Rounding, ScalingScheme, TaskParams};
use batsched_taskgraph::{PointId, TaskGraph, TaskId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn synth_graph(n_layers: usize, m: usize, seed: u64) -> TaskGraph {
    let params = TaskParams {
        current_range: (100.0, 900.0),
        duration_range: (2.0, 12.0),
        factors: (0..m)
            .map(|j| 1.0 - 0.67 * j as f64 / (m - 1).max(1) as f64)
            .collect(),
        scheme: ScalingScheme::ReversedDuration,
        rounding: Rounding::PAPER,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    layered(n_layers, 4, 0.35, &params, &mut rng).expect("valid generator config")
}

fn loose_deadline(g: &TaskGraph) -> f64 {
    let lo = batsched_taskgraph::analysis::min_makespan(g).value();
    let hi = batsched_taskgraph::analysis::max_makespan(g).value();
    lo + (hi - lo) * 0.7
}

fn request_for(g: &TaskGraph, deadline: f64) -> ScheduleRequest {
    ScheduleRequest::new(g.clone(), deadline)
}

fn body_of(req: &ScheduleRequest) -> String {
    serde_json::to_string(req).expect("requests serialise")
}

// ------------------------------------------------------------ wire format

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// parse(render(x)) == x for requests over synthetic graphs with
    /// varying models/options, and the canonical hash is stable across the
    /// round trip (the cache-key contract).
    #[test]
    fn wire_round_trip(seed in 0u64..1_000_000, m in 2usize..6, layers in 2usize..5, variant in 0usize..4) {
        let g = synth_graph(layers, m, seed);
        let mut req = request_for(&g, loose_deadline(&g));
        match variant {
            0 => {}
            1 => req.model = Some(ModelSpec::Kibam { c: 0.5, k: 0.05, alpha: 50_000.0 }),
            2 => { req.model = Some(ModelSpec::Ideal); req.capacity = Some(30_000.0); }
            _ => { req.max_iterations = Some(7); req.capacity = Some(80_000.0); }
        }
        let rendered = body_of(&req);
        let parsed = wire::parse_request(&rendered).expect("own rendering parses");
        prop_assert_eq!(&parsed, &req);
        prop_assert_eq!(parsed.content_hash(), req.content_hash());
        // Canonical form is a fixed point.
        let canon = req.canonical();
        prop_assert_eq!(canon.canonical(), canon);
    }
}

// ------------------------------------------------------- cache behaviour

#[test]
fn cache_hit_is_bit_identical_to_recompute() {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 8,
        ..ServiceConfig::default()
    });
    let body = body_of(&request_for(&g3(), 230.0));
    let cold = svc.call(body.clone());
    assert!(matches!(
        cold.disposition,
        Disposition::Ok { cached: false }
    ));

    // Semantically identical request, differently spelled: defaults made
    // explicit. Must hit the same cache slot and replay the same bytes.
    let mut spelled = request_for(&g3(), 230.0);
    spelled.model = Some(ModelSpec::default_rv());
    spelled.max_iterations = Some(wire::DEFAULT_MAX_ITERATIONS);
    let warm = svc.call(body_of(&spelled));
    assert!(
        matches!(warm.disposition, Disposition::Ok { cached: true }),
        "canonicalised duplicate must hit"
    );
    assert_eq!(cold.body, warm.body, "hit must be bit-identical");

    // A cold recompute (direct solve, no service or cache in the way) of
    // the same request produces the same bytes — the cache changes
    // latency, never content.
    let req = wire::parse_request(&body).unwrap();
    let recomputed = batsched_service::solve(&req, &mut SolverWorkspace::new()).unwrap();
    let recomputed = serde_json::to_string(&recomputed).unwrap();
    assert_eq!(recomputed, cold.body);
    svc.shutdown();
}

// --------------------------------------------------------- concurrency

/// Both wire formats key a request with the same one canonical hash. A
/// binary body that spells no default is that canonical encoding, so its
/// key is the body hash the edge already computed: a cold n=200 canonical
/// binary request times its `hash` stage at zero and leaves no alias. A
/// binary spelling of the same request with its default model spelled out
/// is re-encoded and hashed (a non-zero `hash` stage), gets the same key,
/// and is aliased. Duplicates are hits that run no solve; a
/// byte-duplicate also skips the parse and the hash. At n=200 each of
/// those stages takes far more than 1 µs, so a stage timed at zero did not
/// run.
#[test]
fn cold_binary_request_reports_its_hash_time() {
    let svc = Service::start(ServiceConfig::default());
    let g = synth_graph(50, 8, 3);
    assert_eq!(g.task_count(), 200);
    let req = request_for(&g, loose_deadline(&g));
    let bin = encode_request(&req);
    let reply = svc.call_bytes(bin.clone(), WireFormat::Binary);
    assert_eq!(
        reply.disposition,
        Disposition::Ok { cached: false },
        "{}",
        reply.body
    );
    assert_eq!(reply.trace.format, WireFormat::Binary);
    assert!(reply.trace.us(Stage::Parse) > 0, "{:?}", reply.trace);
    assert_eq!(reply.trace.us(Stage::Hash), 0, "{:?}", reply.trace);
    assert_eq!(
        svc.stats().cache_aliases,
        0,
        "a canonical body needs no alias"
    );
    let resp: ScheduleResponse = serde_json::from_str(&reply.body).expect("parses");
    assert_eq!(resp.key, req.key());
    assert_eq!(resp.key, format!("{:016x}", wire::xxh64(&bin)));
    let cold = reply.body;

    let hit = |reply: &Reply| {
        assert_eq!(reply.disposition, Disposition::Ok { cached: true });
        assert_eq!(reply.body, cold, "a hit must be bit-identical");
        assert_eq!(reply.trace.us(Stage::Solve), 0, "{:?}", reply.trace);
        assert_eq!(reply.trace.prof, Prof::default(), "{:?}", reply.trace);
    };
    // The default model spelled out: decoded, re-encoded and hashed, then
    // a hit on the canonical body's entry, remembered as an alias.
    let mut spelled = req.clone();
    spelled.model = Some(ModelSpec::default_rv());
    let spelled_bin = encode_request(&spelled);
    assert_ne!(spelled_bin, bin);
    let reply = svc.call_bytes(spelled_bin.clone(), WireFormat::Binary);
    hit(&reply);
    assert!(reply.trace.us(Stage::Hash) > 0, "{:?}", reply.trace);
    assert_eq!(svc.stats().cache_aliases, 1);

    // The JSON spelling's first occurrence parses and keys, then hits the
    // same entry.
    let json = body_of(&req);
    hit(&svc.call(json.clone()));
    assert_eq!(svc.stats().cache_aliases, 2);
    let mut duplicates = 2;
    for _ in 0..5 {
        for reply in [
            svc.call(json.clone()),
            svc.call_bytes(bin.clone(), WireFormat::Binary),
            svc.call_bytes(spelled_bin.clone(), WireFormat::Binary),
        ] {
            hit(&reply);
            assert_eq!(reply.trace.us(Stage::Parse), 0, "{:?}", reply.trace);
            assert_eq!(reply.trace.us(Stage::Hash), 0, "{:?}", reply.trace);
            duplicates += 1;
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.solved, 1, "{stats:?}");
    assert_eq!(stats.cache_misses, 1, "{stats:?}");
    assert_eq!(stats.cache_hits, duplicates, "{stats:?}");
    assert_eq!(stats.cache_aliases, 2, "{stats:?}");
    svc.shutdown();
}

#[test]
fn concurrent_clients_each_get_valid_schedules() {
    let svc = Arc::new(Service::start(ServiceConfig {
        workers: 3,
        queue_capacity: 128,
        cache_capacity: 64,
        ..ServiceConfig::default()
    }));
    // Mix of unique and duplicate requests across 8 client threads.
    let graphs: Vec<(TaskGraph, f64)> = vec![
        (g2(), 75.0),
        (g3(), 230.0),
        (synth_graph(3, 3, 7), loose_deadline(&synth_graph(3, 3, 7))),
        (
            synth_graph(4, 4, 11),
            loose_deadline(&synth_graph(4, 4, 11)),
        ),
    ];
    let clients: Vec<_> = (0..8)
        .map(|k| {
            let svc = Arc::clone(&svc);
            let graphs = graphs.clone();
            std::thread::spawn(move || {
                let mut answers = Vec::new();
                for round in 0..3 {
                    let (g, d) = &graphs[(k + round) % graphs.len()];
                    let reply = svc.call(body_of(&request_for(g, *d)));
                    assert!(
                        matches!(reply.disposition, Disposition::Ok { .. }),
                        "client {k} round {round}: {}",
                        reply.body
                    );
                    let resp: ScheduleResponse =
                        serde_json::from_str(&reply.body).expect("schedule response");
                    // Validate the schedule against its own graph.
                    let schedule = batsched_core::Schedule::new(
                        resp.order.iter().map(|&i| TaskId(i)).collect(),
                        resp.assignment.iter().map(|&j| PointId(j)).collect(),
                    );
                    schedule
                        .validate(g, Some(batsched_battery::units::Minutes::new(*d)))
                        .expect("valid schedule under deadline");
                    answers.push((resp.key.clone(), reply.body));
                }
                answers
            })
        })
        .collect();
    let mut by_key: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    for c in clients {
        for (key, body) in c.join().expect("client thread") {
            // Same key ⇒ same bytes, across threads and cache states.
            let prev = by_key.entry(key).or_insert_with(|| body.clone());
            assert_eq!(*prev, body);
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.received, 24);
    assert_eq!(stats.solved + stats.cache_hits, 24);
    assert!(
        stats.cache_hits >= 16,
        "duplicates must mostly hit: {stats:?}"
    );
    svc.shutdown();
}

// ------------------------------------------------- malformed / backpressure

#[test]
fn malformed_stream_yields_typed_errors_never_panics() {
    let svc = Service::start(ServiceConfig::default());
    let ok = body_of(&request_for(&g2(), 75.0));
    let cases: Vec<(String, &str)> = vec![
        ("".into(), "bad_json"),
        ("{".into(), "bad_json"),
        // Nesting far past the parser's depth cap: a typed error, not a
        // stack-overflow abort.
        ("[".repeat(400_000), "bad_json"),
        ("[]".into(), "bad_request"),
        (ok.replace("\"v\":1", "\"v\":3"), "unsupported_version"),
        (
            ok.replace("\"deadline\":75", "\"deadline\":-1"),
            "invalid_deadline",
        ),
        (
            ok.replace("\"deadline\":75", "\"deadline\":2"),
            "infeasible",
        ),
        (
            ok.replace("\"edges\":[", "\"edges\":[[0,1],[0,1],"),
            "invalid_graph",
        ),
        (
            ok.replace(
                "\"model\":null",
                "\"model\":{\"Kibam\":{\"c\":2.0,\"k\":0.1,\"alpha\":1.0}}",
            ),
            "invalid_model",
        ),
    ];
    for (doc, code) in cases {
        let reply = svc.call(doc.clone());
        assert!(
            matches!(
                reply.disposition,
                Disposition::ClientError | Disposition::Internal
            ),
            "doc {doc}: {:?}",
            reply.disposition
        );
        let err: ErrorResponse = serde_json::from_str(&reply.body).expect("typed error body");
        assert_eq!(err.error, code, "doc: {doc}\nbody: {}", reply.body);
    }
    // The service still works afterwards.
    let fine = svc.call(ok);
    assert!(matches!(fine.disposition, Disposition::Ok { .. }));
    svc.shutdown();
}

#[test]
fn full_queue_rejects_with_typed_overload() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    });
    // Unique moderately hard instances so the single worker stays busy
    // (every request is a distinct graph, so each one is a cold solve).
    let mut receivers = Vec::new();
    let mut rejected = 0usize;
    for seed in 0..200u64 {
        let g = synth_graph(5, 5, seed);
        let body = body_of(&request_for(&g, loose_deadline(&g)));
        match svc.submit(body) {
            Ok(rx) => receivers.push(rx),
            Err(reply) => {
                assert!(matches!(reply.disposition, Disposition::Overloaded));
                let err: ErrorResponse =
                    serde_json::from_str(&reply.body).expect("typed overload body");
                assert_eq!(err.error, "overloaded");
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "a 1-deep queue must reject under a 200-burst");
    for rx in receivers {
        let reply = rx.recv().expect("accepted requests are answered");
        assert!(matches!(reply.disposition, Disposition::Ok { .. }));
    }
    assert_eq!(svc.stats().rejected, rejected as u64);
    svc.shutdown();
}

// ----------------------------------------------------------------- HTTP

fn http_call(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, String) {
    let mut c = Conn::connect(addr, Duration::from_secs(30)).expect("connect");
    let r = c.call(method, path, &[], body.as_bytes(), false);
    let r = r.expect("exchange");
    let text = String::from_utf8(r.body).expect("UTF-8 body");
    (r.status, r.head, text)
}

#[test]
fn http_frontend_routes_and_shuts_down() {
    let svc = Arc::new(Service::start(ServiceConfig::default()));
    let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let (code, _, body) = http_call(addr, "GET", "/healthz", "");
    assert_eq!(code, 200);
    assert!(body.contains("true"));

    let req = body_of(&request_for(&g2(), 75.0));
    let (code, head, payload) = http_call(addr, "POST", "/v1/schedule", &req);
    assert_eq!(code, 200, "{payload}");
    assert!(head.contains("X-Cache: miss"), "{head}");
    let resp: ScheduleResponse = serde_json::from_str(&payload).expect("schedule body");
    assert!(resp.makespan <= 75.0 + 1e-9);

    let (code, head, cached) = http_call(addr, "POST", "/v1/schedule", &req);
    assert_eq!(code, 200);
    assert!(head.contains("X-Cache: hit"), "{head}");
    assert_eq!(cached, payload, "HTTP hit replays identical bytes");

    let (code, _, err) = http_call(addr, "POST", "/v1/schedule", "{ nope");
    assert_eq!(code, 400);
    assert!(err.contains("bad_json"));

    let (code, _, err) = http_call(addr, "POST", "/v1/schedule", &"[".repeat(400_000));
    assert_eq!(code, 400);
    assert!(err.contains("bad_json"), "{err}");

    let (code, _, stats) = http_call(addr, "GET", "/v1/stats", "");
    assert_eq!(code, 200);
    assert!(stats.contains("\"cache_hits\":1"), "{stats}");

    let (code, _, miss) = http_call(addr, "GET", "/v1/nope", "");
    assert_eq!(code, 404);
    assert!(miss.contains("not_found"));

    let (code, _, down) = http_call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(code, 200);
    assert!(down.contains("shutting_down"));
    server.wait(); // returns because the endpoint tripped the flag
    svc.shutdown();
}
