//! Cross-format wire contract tests: a request must mean the same thing —
//! and hash to the same cache key — whether it arrives as JSON or as the
//! binary wire format, the binary decoder must be unpanickable under
//! mutation, and a disk tier written through either format must answer
//! the other format bit-identically after a restart.

use batsched_service::wire::{
    fnv1a64, parse_request, ModelSpec, ScheduleRequest, ScheduleResponse, DEFAULT_MAX_ITERATIONS,
};
use batsched_service::{
    decode_request, decode_response, encode_request, Disposition, Service, ServiceConfig,
    WireFormat,
};
use batsched_taskgraph::paper::{g2, g3};
use batsched_taskgraph::{DesignPoint, TaskGraph};
use proptest::prelude::*;

/// Deterministic xorshift so one drawn seed expands into a whole graph.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 29;
        self.0 = x;
        x
    }

    /// A finite float in `(0, hi]` with a non-trivial decimal expansion.
    fn pos(&mut self, hi: u64) -> f64 {
        (self.next() % (hi * 100) + 1) as f64 / 100.0
    }
}

/// Builds a structurally valid request from one seed: uniform point
/// counts, ascending durations with non-increasing currents (the builder's
/// invariants), edges only from lower to higher ids (guaranteed acyclic).
fn request_from_seed(
    seed: u64,
    n_tasks: usize,
    n_points: usize,
    model_kind: u8,
) -> ScheduleRequest {
    let mut rng = Rng(seed);
    let mut b = TaskGraph::builder();
    let mut ids = Vec::new();
    for t in 0..n_tasks {
        let mut duration = rng.pos(5);
        let mut current = 200.0 + rng.pos(400);
        let mut points = Vec::new();
        for _ in 0..n_points {
            points.push(DesignPoint::with_voltage(
                batsched_battery::units::MilliAmps::new(current),
                batsched_battery::units::Minutes::new(duration),
                batsched_battery::units::Volts::new(0.5 + rng.pos(2)),
            ));
            duration += rng.pos(5);
            current = (current - rng.pos(50)).max(1.0);
        }
        ids.push(b.task(format!("t{t}-\"esc\\{}\"", rng.next() % 10), points));
    }
    for i in 0..n_tasks {
        for j in (i + 1)..n_tasks {
            if rng.next().is_multiple_of(3) {
                b.edge(ids[i], ids[j]);
            }
        }
    }
    let graph = b.build().expect("generated graphs are valid");
    let mut req = ScheduleRequest::new(graph, 10.0 + rng.pos(500));
    req.model = match model_kind {
        0 => None,
        1 => Some(ModelSpec::Rv {
            beta: 0.05 + rng.pos(1) / 2.0,
            terms: 1 + (rng.next() % 20) as usize,
        }),
        2 => Some(ModelSpec::Kibam {
            c: 0.1 + rng.pos(1) / 2.0,
            k: rng.pos(3),
            alpha: 100.0 + rng.pos(10_000),
        }),
        3 => Some(ModelSpec::Peukert {
            exponent: 1.0 + rng.pos(1) / 4.0,
            reference: 1.0 + rng.pos(500),
        }),
        _ => Some(ModelSpec::Ideal),
    };
    req.capacity = (rng.next().is_multiple_of(2)).then(|| 1_000.0 + rng.pos(100_000));
    req.max_iterations = (rng.next().is_multiple_of(2)).then(|| 1 + (rng.next() % 200) as usize);
    req
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The cross-format contract: for arbitrary requests, the binary
    /// encoding round-trips exactly, the hash `decode_request` returns
    /// equals the JSON path's hash, and both admission paths (serde
    /// JSON parse, binary decode) agree on the cache key byte-for-byte.
    #[test]
    fn json_and_binary_admissions_agree_on_request_and_key(
        seed in 0u64..u64::MAX / 2,
        n_tasks in 1usize..6,
        n_points in 1usize..4,
        model_kind in 0u8..5,
    ) {
        let req = request_from_seed(seed, n_tasks, n_points, model_kind);

        // JSON path: serde round trip and the content hash.
        let json = serde_json::to_string(&req).expect("serialises");
        let parsed = parse_request(&json).expect("own JSON parses");
        prop_assert_eq!(&parsed, &req);

        // Binary path: exact round trip, then the same canonical hash.
        let bin = encode_request(&req);
        let (decoded, bin_hash) = decode_request(&bin).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &req);
        prop_assert_eq!(bin_hash, req.content_hash(), "binary hash != JSON hash");
        prop_assert_eq!(decoded.key(), parsed.key(), "cache keys diverge across formats");

        // And the canonical form oracle agrees with the hash, which encodes
        // the canonical twin from a borrow: for every combination of
        // absent, default-spelled and other values of the optional fields.
        let oracle = fnv1a64(&encode_request(&req.canonical()));
        prop_assert_eq!(oracle, bin_hash, "canonical form oracle diverged");
        for model in [None, Some(ModelSpec::default_rv()), req.model.clone()] {
            for capacity in [None, req.capacity.or(Some(5_000.0))] {
                for max_iterations in [None, Some(DEFAULT_MAX_ITERATIONS), Some(7)] {
                    let variant = ScheduleRequest {
                        model: model.clone(),
                        capacity,
                        max_iterations,
                        ..req.clone()
                    };
                    let oracle = fnv1a64(&encode_request(&variant.canonical()));
                    prop_assert_eq!(variant.content_hash(), oracle, "{:?}", variant);
                }
            }
        }
    }

    /// Unpanickable decoder: flipping any single byte of a valid encoding
    /// (or truncating it anywhere) yields `Ok` or a typed error — never a
    /// panic, never an absurd allocation.
    #[test]
    fn mutated_binary_requests_never_panic(
        seed in 0u64..u64::MAX / 2,
        flip in 0usize..4096,
        xor in 1u8..255,
    ) {
        let req = request_from_seed(seed, 3, 2, (seed % 5) as u8);
        let mut bin = encode_request(&req);
        let idx = flip % bin.len();
        bin[idx] ^= xor;
        let _ = decode_request(&bin); // must return, not panic
        let cut = flip % (bin.len() + 1);
        let _ = decode_request(&bin[..cut]);
    }
}

/// A hostile RV `terms` count sizes a per-request allocation; both wire
/// formats must reject it as a typed `invalid_model` before allocating.
#[test]
fn absurd_model_terms_are_rejected_in_both_formats() {
    let mut req = ScheduleRequest::new(g2(), 75.0);
    req.model = Some(ModelSpec::Rv {
        beta: 0.273,
        terms: usize::MAX / 8,
    });
    let e = decode_request(&encode_request(&req)).expect_err("binary must reject");
    assert_eq!(e.code(), "invalid_model");
    let e = parse_request(&serde_json::to_string(&req).unwrap()).expect_err("JSON must reject");
    assert_eq!(e.code(), "invalid_model");
}

#[test]
fn binary_and_json_requests_share_one_cache_entry() {
    let svc = Service::start(ServiceConfig::default());
    let req = ScheduleRequest::new(g2(), 75.0);
    let json = serde_json::to_string(&req).expect("serialises");

    let cold = svc.call(json.clone());
    assert!(
        matches!(cold.disposition, Disposition::Ok { cached: false }),
        "{}",
        cold.body
    );

    // The SAME request in binary hits the canonical cache entry and
    // replays the identical body.
    let warm = svc.call_bytes(encode_request(&req), WireFormat::Binary);
    assert!(
        matches!(warm.disposition, Disposition::Ok { cached: true }),
        "{}",
        warm.body
    );
    assert_eq!(
        warm.body, cold.body,
        "cross-format hit must be bit-identical"
    );

    // Binary admissions are visible in stats and traces.
    let stats = svc.stats();
    assert_eq!(stats.received, 2);
    assert_eq!(stats.binary_requests, 1);
    assert_eq!(warm.trace.format, WireFormat::Binary);
    assert_eq!(cold.trace.format, WireFormat::Json);
    svc.shutdown();
}

#[test]
fn binary_decode_errors_are_typed_through_the_service() {
    let svc = Service::start(ServiceConfig::default());
    let reply = svc.call_bytes(b"BSCH\x01\x09garbage".to_vec(), WireFormat::Binary);
    assert!(matches!(reply.disposition, Disposition::ClientError));
    assert!(reply.body.contains("unsupported_version"), "{}", reply.body);
    let reply = svc.call_bytes(vec![0xde, 0xad], WireFormat::Binary);
    assert!(reply.body.contains("bad_binary"), "{}", reply.body);
    // A JSON-format submission that is not UTF-8 is bad_json, not a panic.
    let reply = svc.call_bytes(vec![0xff, 0xfe], WireFormat::Json);
    assert!(reply.body.contains("bad_json"), "{}", reply.body);
    assert_eq!(svc.stats().client_errors, 3);
    svc.shutdown();
}

fn disk_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("batsched_wire_formats");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let p = dir.join(format!("{name}_{}.records", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// The acceptance-criteria warm restart: a disk tier populated through
/// JSON requests answers the binary spelling of the same requests
/// bit-identically after a restart — and vice versa.
#[test]
fn warm_restart_answers_the_other_wire_format_bit_identically() {
    let path = disk_path("warm_restart");
    let reqs = [
        ScheduleRequest::new(g2(), 75.0),
        ScheduleRequest::new(g3(), 230.0),
    ];
    let cfg = || ServiceConfig {
        disk_path: Some(path.clone()),
        ..ServiceConfig::default()
    };

    // Populate via JSON, remember the cold bodies.
    let svc = Service::try_start(cfg()).expect("start");
    let cold: Vec<String> = reqs
        .iter()
        .map(|r| {
            let reply = svc.call(serde_json::to_string(r).expect("serialises"));
            assert!(
                matches!(reply.disposition, Disposition::Ok { cached: false }),
                "{}",
                reply.body
            );
            reply.body
        })
        .collect();
    svc.shutdown(); // compacts the tier on the way out

    // Restart: binary requests must be disk-warm hits with identical
    // bodies (solved == 0 proves nothing was recomputed).
    let svc = Service::try_start(cfg()).expect("restart");
    for (r, expect) in reqs.iter().zip(&cold) {
        let reply = svc.call_bytes(encode_request(r), WireFormat::Binary);
        assert!(
            matches!(reply.disposition, Disposition::Ok { cached: true }),
            "{}",
            reply.body
        );
        assert_eq!(&reply.body, expect, "warm body diverged");
    }
    assert_eq!(svc.stats().solved, 0, "restart must not re-solve");
    svc.shutdown();

    // And the reverse direction: a binary-populated tier serving JSON.
    std::fs::remove_file(&path).expect("reset");
    let svc = Service::try_start(cfg()).expect("start binary-first");
    for (r, expect) in reqs.iter().zip(&cold) {
        let reply = svc.call_bytes(encode_request(r), WireFormat::Binary);
        assert!(matches!(
            reply.disposition,
            Disposition::Ok { cached: false }
        ));
        assert_eq!(&reply.body, expect, "binary cold body diverged");
    }
    svc.shutdown();
    let svc = Service::try_start(cfg()).expect("restart json");
    for (r, expect) in reqs.iter().zip(&cold) {
        let reply = svc.call(serde_json::to_string(r).expect("serialises"));
        assert!(matches!(
            reply.disposition,
            Disposition::Ok { cached: true }
        ));
        assert_eq!(&reply.body, expect, "warm JSON body diverged");
    }
    svc.shutdown();
    std::fs::remove_file(&path).expect("cleanup");
}

/// Responses survive the binary codec bit-identically — the property the
/// HTTP `Accept` transcoding leans on.
#[test]
fn response_transcoding_is_lossless_for_real_solver_output() {
    let svc = Service::start(ServiceConfig::default());
    for (g, d) in [(g2(), 75.0), (g3(), 230.0)] {
        let reply = svc.call(serde_json::to_string(&ScheduleRequest::new(g, d)).unwrap());
        let resp: ScheduleResponse = serde_json::from_str(&reply.body).expect("parses");
        let bin = batsched_service::encode_response(&resp);
        let back = decode_response(&bin).expect("decodes");
        assert_eq!(serde_json::to_string(&back).unwrap(), reply.body);
        assert!(bin.len() < reply.body.len(), "binary response not smaller");
    }
    svc.shutdown();
}
