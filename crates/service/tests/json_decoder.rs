//! The streaming JSON decoder (`parse_request`) against the tree path it
//! replaced (`parse_request_reference`): for every document both must give
//! the same request (and so the same content hash) or the same error.
//!
//! The documents are generated requests respelled the ways JSON allows —
//! shuffled members, random whitespace, unknown keys and repeated keys at
//! every level, explicit `null` optionals, values of the wrong kind — plus
//! byte-flipped and truncated copies of those, and a fixed set of hostile
//! shapes (nesting past the depth cap, a 1 MiB name, 100k unknown keys, a
//! 10k-digit number, every prefix of a paper request).

use batsched_service::wire::{
    parse_request, parse_request_reference, ModelSpec, ScheduleRequest, WireError,
};
use batsched_taskgraph::paper::g2;
use batsched_taskgraph::{DesignPoint, TaskGraph};
use proptest::prelude::*;
use serde::json::{Value, MAX_DEPTH};
use serde::Serialize;

/// Both decoders on one document: equal requests with equal keys, or equal
/// errors. Returns the verdict.
fn agree(doc: &str) -> Result<ScheduleRequest, WireError> {
    let fast = parse_request(doc);
    let tree = parse_request_reference(doc);
    match (&fast, &tree) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "requests differ on {doc:?}");
            assert_eq!(a.content_hash(), b.content_hash(), "keys differ on {doc:?}");
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.code(), b.code(), "error codes differ on {doc:?}");
            assert_eq!(a, b, "errors differ on {doc:?}");
        }
        _ => panic!("decoders disagree on {doc:?}: {fast:?} vs {tree:?}"),
    }
    fast
}

/// Deterministic xorshift: one drawn seed expands into a whole document.
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

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `1 / n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pos(&mut self, hi: u64) -> f64 {
        (self.next() % (hi * 100) + 1) as f64 / 100.0
    }
}

const NAMES: [&str; 5] = [
    "T",
    "quote\" back\\slash",
    "ünïcödé ☃",
    "tab\there",
    "ctl\u{1}",
];

/// A valid request: uniform point counts, ascending durations with
/// non-increasing currents, edges from lower to higher ids.
fn request(rng: &mut Rng) -> ScheduleRequest {
    let (n, m) = (1 + rng.below(5), 1 + rng.below(4));
    let mut b = TaskGraph::builder();
    let mut ids = Vec::new();
    for t in 0..n {
        let (mut duration, mut current) = (rng.pos(5), 200.0 + rng.pos(400));
        let mut points = Vec::new();
        for _ in 0..m {
            points.push(DesignPoint::with_voltage(
                batsched_battery::units::MilliAmps::new(current),
                batsched_battery::units::Minutes::new(duration),
                batsched_battery::units::Volts::new(0.5 + rng.pos(2)),
            ));
            duration += rng.pos(5);
            current = (current - rng.pos(50)).max(1.0);
        }
        let name = format!("{}{t}", NAMES[rng.below(NAMES.len())]);
        ids.push(b.task(name, points));
    }
    for v in 1..n {
        for u in 0..v {
            if rng.one_in(3) {
                b.edge(ids[u], ids[v]);
            }
        }
    }
    let mut req = ScheduleRequest::new(b.build().expect("valid graph"), rng.pos(200));
    req.model = match rng.below(5) {
        0 => Some(ModelSpec::default_rv()),
        1 => Some(ModelSpec::Ideal),
        2 => Some(ModelSpec::Kibam {
            c: 0.5,
            k: 0.05,
            alpha: 40_000.0,
        }),
        3 => Some(ModelSpec::Peukert {
            exponent: 1.2,
            reference: 300.0,
        }),
        _ => None,
    };
    req.capacity = rng.one_in(2).then(|| rng.pos(50_000));
    req.max_iterations = rng.one_in(2).then(|| 1 + rng.below(100));
    req
}

/// A small random value of any kind, sometimes nested.
fn junk(rng: &mut Rng, depth: usize) -> Value {
    match rng.below(if depth > 2 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.one_in(2)),
        2 => Value::Num(rng.pos(1000) - 500.0),
        3 => Value::Num(rng.below(10) as f64),
        4 => Value::Str(NAMES[rng.below(NAMES.len())].to_string()),
        5 => Value::Arr((0..rng.below(3)).map(|_| junk(rng, depth + 1)).collect()),
        _ => Value::Obj(
            (0..rng.below(3))
                .map(|k| (format!("junk{k}"), junk(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// Whitespace between tokens, usually none.
fn ws(rng: &mut Rng, out: &mut String) {
    if rng.one_in(4) {
        for _ in 0..1 + rng.below(3) {
            out.push([' ', '\t', '\n', '\r'][rng.below(4)]);
        }
    }
}

/// Prints `v` as JSON, respelled: members shuffled, unknown keys added and
/// known ones repeated with junk values. A `messy` spelling may put a
/// repeat first (so the junk wins) and swap a value for junk outright; a
/// tidy one means the same request as `v`.
fn respell(v: &Value, messy: bool, rng: &mut Rng, out: &mut String) {
    ws(rng, out);
    match v {
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                respell(item, messy, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Value::Obj(entries) => {
            let mut members: Vec<(String, Value)> = entries.clone();
            // An enum's single-key wrapper (`{"Kibam":{…}}`) takes no
            // extra key in a tidy spelling.
            let wrapper = entries.len() == 1 && entries[0].0.starts_with(char::is_uppercase);
            let tidy_wrapper = wrapper && !messy;
            if !tidy_wrapper && rng.one_in(3) {
                members.push((format!("unknown{}", rng.below(4)), junk(rng, 0)));
            }
            if messy && rng.one_in(20) && !members.is_empty() {
                let k = rng.below(members.len());
                members[k].1 = junk(rng, 0);
            }
            if rng.one_in(2) {
                for i in (1..members.len()).rev() {
                    members.swap(i, rng.below(i + 1));
                }
            }
            if !tidy_wrapper && rng.one_in(4) && !entries.is_empty() {
                let key = entries[rng.below(entries.len())].0.clone();
                let at = if messy {
                    rng.below(members.len() + 1)
                } else {
                    members.len()
                };
                members.insert(at, (key, junk(rng, 0)));
            }
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                serde::json::write_compact(&Value::Str(key.clone()), out);
                ws(rng, out);
                out.push(':');
                respell(item, messy, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        scalar => serde::json::write_compact(scalar, out),
    }
    ws(rng, out);
}

/// A generated request, respelled (tidily for even seeds).
fn document(seed: u64) -> String {
    let mut rng = Rng(seed);
    let req = request(&mut rng);
    let mut tree = req.to_value();
    // Absent optionals serialise as `null`; drop some so both spellings
    // of "absent" occur.
    if let Value::Obj(entries) = &mut tree {
        entries.retain(|(k, v)| !(v == &Value::Null && rng.one_in(2)) || k == "graph");
    }
    let mut doc = String::new();
    respell(&tree, seed % 2 == 1, &mut rng, &mut doc);
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Respelled requests, tidy and messy, decode identically.
    #[test]
    fn respelled_requests_decode_identically(seed in any::<u64>()) {
        agree(&document(seed)).ok();
    }

    /// Byte-flipped copies: a few characters replaced by JSON-significant
    /// ones, so every syntax and type error path is reached.
    #[test]
    fn flipped_requests_decode_identically(seed in any::<u64>(), flips in 1usize..4) {
        let doc = document(seed);
        let mut rng = Rng(seed ^ 0x5eed);
        let mut chars: Vec<char> = doc.chars().collect();
        for _ in 0..flips {
            let at = rng.below(chars.len());
            chars[at] = b"{}[]\",:-.e0159 ntfu\\x"[rng.below(21)] as char;
        }
        agree(&chars.into_iter().collect::<String>()).ok();
    }

    /// Every truncation is an error, the same one from both decoders.
    #[test]
    fn truncated_requests_decode_identically(seed in any::<u64>(), cut in any::<u64>()) {
        let doc = document(seed);
        let mut at = (cut % doc.len() as u64) as usize;
        while !doc.is_char_boundary(at) {
            at -= 1;
        }
        prop_assert!(agree(&doc[..at]).is_err());
    }
}

#[test]
fn tidy_respellings_mean_the_request_they_spell() {
    for seed in (0..400u64).step_by(2) {
        let req = request(&mut Rng(seed));
        assert_eq!(agree(&document(seed)), Ok(req), "seed {seed}");
    }
}

#[test]
fn first_occurrence_wins_and_null_means_absent() {
    let base = serde_json::to_string(&ScheduleRequest::new(g2(), 75.0)).unwrap();
    let body = base.trim_start_matches('{');
    // A later repeat of `deadline` is ignored, however malformed.
    let doc = format!("{{{body}").replace("\"deadline\":75", "\"deadline\":75,\"deadline\":\"x\"");
    assert_eq!(agree(&doc).unwrap().deadline, 75.0);
    // An earlier repeat wins, even when it is the bad one.
    let doc = format!("{{\"deadline\":[1],{body}");
    assert_eq!(agree(&doc).unwrap_err().code(), "bad_request");
    // `null` optionals are absent.
    let req = agree(&base).unwrap();
    assert_eq!(
        (req.model, req.capacity, req.max_iterations),
        (None, None, None)
    );
}

#[test]
fn a_syntax_error_anywhere_outranks_every_field_error() {
    // Wrong version up front, a syntax error at the very end.
    let doc = r#"{"v":2,"graph":{"tasks":[],"edges":[]},"deadline":-1,"x":[1,}"#;
    assert_eq!(agree(doc).unwrap_err().code(), "bad_json");
    // Without it, the fields are judged in the reference's order.
    let doc = r#"{"max_iterations":0,"deadline":-1,"graph":{},"v":2}"#;
    assert_eq!(agree(doc).unwrap_err().code(), "unsupported_version");
    let doc = r#"{"max_iterations":0,"deadline":-1,"graph":{},"v":1}"#;
    assert_eq!(agree(doc).unwrap_err().code(), "invalid_graph");
}

// ------------------------------------------------- hostile shapes

/// `depth` nested arrays around a `0`.
fn nested(depth: usize) -> String {
    format!("{}0{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn nesting_past_the_cap_is_bad_json_in_an_unknown_key_and_in_the_graph() {
    let g2_doc = serde_json::to_string(&ScheduleRequest::new(g2(), 75.0)).unwrap();
    let body = g2_doc.trim_start_matches('{');
    // The root object is one level: MAX_DEPTH − 1 arrays inside it reach
    // the cap, one more passes it.
    let top = |depth: usize| format!("{{\"deep\":{},{body}", nested(depth));
    assert!(agree(&top(MAX_DEPTH - 1)).is_ok());
    assert_eq!(agree(&top(MAX_DEPTH)).unwrap_err().code(), "bad_json");
    // Inside `graph` (two levels down) the same cap holds.
    let in_graph = |depth: usize| {
        g2_doc.replacen(
            "\"graph\":{",
            &format!("\"graph\":{{\"deep\":{},", nested(depth)),
            1,
        )
    };
    assert!(agree(&in_graph(MAX_DEPTH - 2)).is_ok());
    assert_eq!(
        agree(&in_graph(MAX_DEPTH - 1)).unwrap_err().code(),
        "bad_json"
    );
    // Far past the cap: rejected, not a stack overflow.
    assert_eq!(agree(&"[".repeat(400_000)).unwrap_err().code(), "bad_json");
}

#[test]
fn a_one_mebibyte_task_name_is_refused_by_the_name_cap() {
    let mut b = TaskGraph::builder();
    b.task(
        "n".repeat(1 << 20),
        vec![DesignPoint::new(
            batsched_battery::units::MilliAmps::new(100.0),
            batsched_battery::units::Minutes::new(1.0),
        )],
    );
    let req = ScheduleRequest::new(b.build().unwrap(), 10.0);
    let doc = serde_json::to_string(&req).unwrap();
    assert_eq!(agree(&doc).unwrap_err().code(), "invalid_graph");
}

#[test]
fn a_hundred_thousand_unknown_keys_are_read_and_ignored() {
    let keys: String = (0..100_000).map(|k| format!("\"k{k}\":{k},")).collect();
    assert_eq!(
        agree(&format!("{{{keys}\"v\":1}}")).unwrap_err().code(),
        "bad_request"
    );
    let g2_doc = serde_json::to_string(&ScheduleRequest::new(g2(), 75.0)).unwrap();
    let doc = format!("{{{keys}{}", g2_doc.trim_start_matches('{'));
    assert_eq!(agree(&doc).unwrap().graph, g2());
}

#[test]
fn a_ten_thousand_digit_number_is_a_typed_error() {
    let g2_doc = serde_json::to_string(&ScheduleRequest::new(g2(), 75.0)).unwrap();
    let long = format!("1{}", "0".repeat(10_000));
    let as_deadline = g2_doc.replace("\"deadline\":75", &format!("\"deadline\":{long}"));
    assert_eq!(agree(&as_deadline).unwrap_err().code(), "invalid_deadline");
    let as_version = g2_doc.replace("\"v\":1", &format!("\"v\":{long}"));
    assert_eq!(agree(&as_version).unwrap_err().code(), "bad_request");
}

#[test]
fn every_prefix_of_a_paper_request_is_bad_json() {
    let doc = serde_json::to_string(&ScheduleRequest::new(g2(), 75.0)).unwrap();
    for at in 0..doc.len() {
        assert_eq!(
            agree(&doc[..at]).unwrap_err().code(),
            "bad_json",
            "cut at {at}"
        );
    }
    assert!(agree(&doc).is_ok());
}
