//! The binary wire format: a versioned, length-prefixed encoding of
//! [`ScheduleRequest`]/[`ScheduleResponse`] negotiated on the HTTP
//! frontend by `Content-Type: application/x-batsched-bin` (see
//! `docs/WIRE.md` for the byte-level layout).
//!
//! The decoder is a **single pass with no intermediate tree**: each field
//! is read straight out of the input buffer into the `TaskGraph` builder's
//! buffers. Because the format requires design points sorted by ascending
//! duration and a strictly sorted edge table (the orders the graph builder
//! normalises to), the builder's stable sort is a no-op and
//! `decode(encode(r)) == r` for every valid request. Each request has
//! exactly one encoding, so [`encode_request`] doubles as the canonical
//! form: the cache key ([`ScheduleRequest::content_hash`]) hashes the
//! encoding of the request's canonical twin, and both wire formats key
//! through that one function.
//!
//! Hostile input never panics or over-allocates: every declared count is
//! capped against the bytes actually remaining before any allocation, and
//! framing violations answer a typed [`WireError::Binary`] (`bad_binary`)
//! while semantic violations reuse the JSON path's typed errors
//! (`invalid_deadline`, `invalid_graph`, …) so clients see one taxonomy.

use crate::wire::{ModelSpec, ScheduleRequest, ScheduleResponse, WireError, WIRE_VERSION};
use batsched_battery::units::{MilliAmps, Minutes, Volts};
use batsched_taskgraph::io::{self, IoError};
use batsched_taskgraph::{DesignPoint, TaskGraph, TaskNode};

/// The negotiated media type for binary requests and responses.
pub const CONTENT_TYPE: &str = "application/x-batsched-bin";

/// Shared 4-byte magic opening every binary document.
pub const MAGIC: [u8; 4] = *b"BSCH";

/// Kind byte: a request document.
pub const KIND_REQUEST: u8 = 0x01;

/// Kind byte: a response document.
pub const KIND_RESPONSE: u8 = 0x02;

/// Binary format version byte (tracks [`WIRE_VERSION`]).
pub const BIN_VERSION: u8 = 0x01;

/// Which wire format a request arrived in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WireFormat {
    /// JSON (`application/json`, the compat path).
    #[default]
    Json,
    /// Binary (`application/x-batsched-bin`).
    Binary,
}

impl WireFormat {
    /// Stable label for spans, stats and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Json => "json",
            Self::Binary => "binary",
        }
    }
}

fn berr(message: impl Into<String>) -> WireError {
    WireError::Binary {
        message: message.into(),
    }
}

/// A bounds-checked little-endian cursor over untrusted bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        // Checked access end to end: `get` returns exactly `n` bytes or
        // None, so no hostile length can panic the decoding thread.
        let s = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or_else(|| {
                berr(format!(
                    "truncated input: {what} needs {n} bytes, {} remain",
                    self.remaining()
                ))
            })?;
        self.pos += n;
        Ok(s)
    }

    /// `take` with a compile-time width: the array pattern destructure is
    /// irrefutable, so the integer readers below index nothing.
    fn take_array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], WireError> {
        let s = self.take(N, what)?;
        s.try_into()
            .map_err(|_| berr(format!("{what}: internal framing error")))
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        let [b] = self.take_array(what)?;
        Ok(b)
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_array(what)?))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array(what)?))
    }

    fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A `u16`-length-prefixed UTF-8 string.
    fn str(&mut self, what: &str) -> Result<&'a str, WireError> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| berr(format!("{what} is not valid UTF-8")))
    }

    /// Caps a declared element count against the bytes actually remaining
    /// (`min_bytes` per element) so hostile lengths cannot drive an
    /// allocation past the input size.
    fn cap_count(&self, declared: usize, min_bytes: usize, what: &str) -> Result<(), WireError> {
        if declared > self.remaining() / min_bytes {
            return Err(berr(format!(
                "declared {what} count {declared} exceeds the input ({} bytes remain)",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn check_header(r: &mut Reader<'_>, kind: u8, label: &str) -> Result<(), WireError> {
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(berr(format!("bad magic {magic:02x?}")));
    }
    let k = r.u8("kind byte")?;
    if k != kind {
        return Err(berr(format!("kind byte {k:#04x} is not a {label}")));
    }
    let version = r.u8("version byte")?;
    if version != BIN_VERSION {
        return Err(WireError::Version {
            found: u32::from(version),
        });
    }
    Ok(())
}

/// Encodes a request. Tasks, design points and edges are emitted in the
/// graph's normalised order, so the output always satisfies the sortedness
/// invariants [`decode_request`] enforces.
pub fn encode_request(req: &ScheduleRequest) -> Vec<u8> {
    encode_request_with(req, req.model.as_ref(), req.max_iterations)
}

/// Encodes `req` as if its `model` and `max_iterations` fields held the
/// given values — how the content hash encodes a request's canonical twin
/// from a borrow, without cloning its graph.
pub(crate) fn encode_request_with(
    req: &ScheduleRequest,
    model: Option<&ModelSpec>,
    max_iterations: Option<usize>,
) -> Vec<u8> {
    let g = &req.graph;
    // lint:allow(uncapped-wire-alloc): encoder, not decoder — the size comes
    // from an already-validated in-memory graph, not from wire input.
    let mut out = Vec::with_capacity(64 + g.task_count() * 64 + g.edge_count() * 8);
    out.extend_from_slice(&MAGIC);
    out.push(KIND_REQUEST);
    out.push(BIN_VERSION);
    out.extend_from_slice(&(g.task_count() as u32).to_le_bytes());
    for id in g.task_ids() {
        let t = g.task(id);
        out.extend_from_slice(&(t.name.len() as u16).to_le_bytes());
        out.extend_from_slice(t.name.as_bytes());
        out.extend_from_slice(&(t.points.len() as u16).to_le_bytes());
        for p in &t.points {
            out.extend_from_slice(&p.duration.value().to_bits().to_le_bytes());
            out.extend_from_slice(&p.current.value().to_bits().to_le_bytes());
            out.extend_from_slice(&p.voltage.value().to_bits().to_le_bytes());
        }
    }
    out.extend_from_slice(&(g.edge_count() as u32).to_le_bytes());
    for (a, b) in g.edges() {
        out.extend_from_slice(&(a.index() as u32).to_le_bytes());
        out.extend_from_slice(&(b.index() as u32).to_le_bytes());
    }
    out.extend_from_slice(&req.deadline.to_bits().to_le_bytes());
    match model {
        None => out.push(0),
        Some(ModelSpec::Rv { beta, terms }) => {
            out.push(1);
            out.extend_from_slice(&beta.to_bits().to_le_bytes());
            out.extend_from_slice(&(*terms as u64).to_le_bytes());
        }
        Some(ModelSpec::Kibam { c, k, alpha }) => {
            out.push(2);
            out.extend_from_slice(&c.to_bits().to_le_bytes());
            out.extend_from_slice(&k.to_bits().to_le_bytes());
            out.extend_from_slice(&alpha.to_bits().to_le_bytes());
        }
        Some(ModelSpec::Peukert {
            exponent,
            reference,
        }) => {
            out.push(3);
            out.extend_from_slice(&exponent.to_bits().to_le_bytes());
            out.extend_from_slice(&reference.to_bits().to_le_bytes());
        }
        Some(ModelSpec::Ideal) => out.push(4),
    }
    match req.capacity {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            out.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    match max_iterations {
        None => out.push(0),
        Some(n) => {
            out.push(1);
            out.extend_from_slice(&(n as u64).to_le_bytes());
        }
    }
    out
}

/// Decodes and fully validates one binary request, returning it with its
/// canonical content hash ([`ScheduleRequest::content_hash`]) — the pair
/// the JSON path gets from [`crate::wire::parse_request`] followed by
/// `content_hash()`. The service decodes with the crate-private,
/// hash-free `decode` and hashes once itself.
///
/// # Errors
///
/// [`WireError::Binary`] for framing problems; the JSON path's typed
/// errors ([`WireError::Graph`], [`WireError::InvalidDeadline`], …) for
/// semantic ones.
pub fn decode_request(buf: &[u8]) -> Result<(ScheduleRequest, u64), WireError> {
    let req = decode(buf)?;
    let key = req.content_hash();
    Ok((req, key))
}

/// Decodes and fully validates one binary request in a single pass with no
/// intermediate tree.
///
/// Format invariants beyond framing: design points sorted by ascending
/// duration within each task, and the edge table strictly sorted by
/// `(from, to)` — the graph builder's normalised orders, so each request
/// has exactly one binary encoding (the layout `docs/WIRE.md` promises).
///
/// # Errors
///
/// [`WireError::Binary`] for framing problems; the JSON path's typed
/// errors ([`WireError::Graph`], [`WireError::InvalidDeadline`], …) for
/// semantic ones.
pub(crate) fn decode(buf: &[u8]) -> Result<ScheduleRequest, WireError> {
    let mut r = Reader::new(buf);
    check_header(&mut r, KIND_REQUEST, "request")?;

    let task_count = r.u32("task count")? as usize;
    r.cap_count(task_count, 4, "task")?;
    let mut tasks = Vec::with_capacity(task_count);
    for _ in 0..task_count {
        let name = r.str("task name")?;
        let point_count = r.u16("point count")? as usize;
        r.cap_count(point_count, 24, "design point")?;
        let mut points = Vec::with_capacity(point_count);
        let mut prev_duration = f64::NEG_INFINITY;
        for j in 0..point_count {
            let duration = r.f64("duration")?;
            let current = r.f64("current")?;
            let voltage = r.f64("voltage")?;
            let point = DesignPoint::with_voltage(
                MilliAmps::new(current),
                Minutes::new(duration),
                Volts::new(voltage),
            );
            if let Some(message) = io::point_fault(&point) {
                return Err(WireError::Graph(IoError::InvalidValue {
                    task: name.to_string(),
                    point: j,
                    message: message.into(),
                }));
            }
            if duration < prev_duration {
                return Err(berr(format!(
                    "design points of task {name} must be sorted by ascending duration"
                )));
            }
            prev_duration = duration;
            points.push(point);
        }
        tasks.push(TaskNode {
            name: name.to_string(),
            points,
        });
    }

    let edge_count = r.u32("edge count")? as usize;
    r.cap_count(edge_count, 8, "edge")?;
    let mut edges = Vec::with_capacity(edge_count);
    let mut prev_edge: Option<(usize, usize)> = None;
    for _ in 0..edge_count {
        let u = r.u32("edge source")? as usize;
        let v = r.u32("edge target")? as usize;
        if u >= task_count || v >= task_count {
            return Err(berr(format!("edge ({u},{v}) references an unknown task")));
        }
        if let Some(p) = prev_edge {
            if (u, v) <= p {
                return Err(berr(
                    "edge table must be strictly sorted by (from, to) with no duplicates",
                ));
            }
        }
        prev_edge = Some((u, v));
        edges.push((u, v));
    }

    let deadline = r.f64("deadline")?;
    if !(deadline.is_finite() && deadline > 0.0) {
        return Err(WireError::InvalidDeadline { deadline });
    }

    let model = match r.u8("model tag")? {
        0 => None,
        1 => {
            let beta = r.f64("rv beta")?;
            let terms =
                usize::try_from(r.u64("rv terms")?).map_err(|_| berr("rv terms out of range"))?;
            Some(ModelSpec::Rv { beta, terms })
        }
        2 => Some(ModelSpec::Kibam {
            c: r.f64("kibam c")?,
            k: r.f64("kibam k")?,
            alpha: r.f64("kibam alpha")?,
        }),
        3 => Some(ModelSpec::Peukert {
            exponent: r.f64("peukert exponent")?,
            reference: r.f64("peukert reference")?,
        }),
        4 => Some(ModelSpec::Ideal),
        tag => return Err(berr(format!("unknown model tag {tag:#04x}"))),
    };
    if let Some(spec) = &model {
        spec.build()?; // validate parameters now, with a typed error
    }

    let capacity = match r.u8("capacity flag")? {
        0 => None,
        1 => Some(r.f64("capacity")?),
        f => return Err(berr(format!("capacity flag must be 0 or 1, got {f}"))),
    };
    if let Some(c) = capacity {
        if !(c.is_finite() && c > 0.0) {
            return Err(WireError::InvalidCapacity { capacity: c });
        }
    }

    let max_iterations = match r.u8("max_iterations flag")? {
        0 => None,
        1 => {
            let n = usize::try_from(r.u64("max_iterations")?)
                .map_err(|_| berr("max_iterations out of range"))?;
            if n == 0 {
                return Err(WireError::BadField {
                    field: "max_iterations",
                    message: "must be at least 1".into(),
                });
            }
            Some(n)
        }
        f => return Err(berr(format!("max_iterations flag must be 0 or 1, got {f}"))),
    };

    if r.remaining() != 0 {
        return Err(berr(format!(
            "{} trailing bytes after the request",
            r.remaining()
        )));
    }

    let graph = TaskGraph::from_parts(tasks, edges, true)
        .map_err(|e| WireError::Graph(IoError::Graph(e)))?;
    Ok(ScheduleRequest {
        v: WIRE_VERSION,
        graph,
        deadline,
        model,
        capacity,
        max_iterations,
    })
}

fn push_str16(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len().min(u16::MAX as usize) as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..s.len().min(u16::MAX as usize)]);
}

fn push_index_vec(out: &mut Vec<u8>, xs: &[usize]) {
    out.extend_from_slice(&(xs.len() as u32).to_le_bytes());
    for &x in xs {
        out.extend_from_slice(&(x as u32).to_le_bytes());
    }
}

/// Encodes a response (`Accept`-negotiated on the HTTP frontend).
pub fn encode_response(resp: &ScheduleResponse) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        96 + resp.key.len() + resp.model.len() + 4 * (resp.order.len() + resp.assignment.len()),
    );
    out.extend_from_slice(&MAGIC);
    out.push(KIND_RESPONSE);
    out.push(BIN_VERSION);
    out.extend_from_slice(&resp.v.to_le_bytes());
    push_str16(&mut out, &resp.key);
    push_str16(&mut out, &resp.model);
    push_index_vec(&mut out, &resp.order);
    push_index_vec(&mut out, &resp.assignment);
    for x in [
        resp.sigma,
        resp.makespan,
        resp.deadline,
        resp.direct_charge,
        resp.model_cost,
    ] {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    out.push(match resp.survives {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
    match resp.lifetime {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            out.extend_from_slice(&t.to_bits().to_le_bytes());
        }
    }
    out.extend_from_slice(&(resp.iterations as u64).to_le_bytes());
    out
}

fn read_index_vec(r: &mut Reader<'_>, what: &str) -> Result<Vec<usize>, WireError> {
    let n = r.u32(what)? as usize;
    r.cap_count(n, 4, what)?;
    let mut xs = Vec::with_capacity(n);
    for _ in 0..n {
        xs.push(r.u32(what)? as usize);
    }
    Ok(xs)
}

/// Decodes one binary response. Same hardening rules as
/// [`decode_request`]: counts capped before allocation, truncation and
/// trailing bytes answer typed errors, never panics.
///
/// # Errors
///
/// [`WireError::Binary`] for framing problems, [`WireError::Version`] for
/// an unknown version byte.
pub fn decode_response(buf: &[u8]) -> Result<ScheduleResponse, WireError> {
    let mut r = Reader::new(buf);
    check_header(&mut r, KIND_RESPONSE, "response")?;
    let v = r.u32("response version")?;
    let key = r.str("key")?.to_string();
    let model = r.str("model name")?.to_string();
    let order = read_index_vec(&mut r, "order entry")?;
    let assignment = read_index_vec(&mut r, "assignment entry")?;
    let sigma = r.f64("sigma")?;
    let makespan = r.f64("makespan")?;
    let deadline = r.f64("deadline")?;
    let direct_charge = r.f64("direct_charge")?;
    let model_cost = r.f64("model_cost")?;
    let survives = match r.u8("survives flag")? {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        f => return Err(berr(format!("survives flag must be 0..=2, got {f}"))),
    };
    let lifetime = match r.u8("lifetime flag")? {
        0 => None,
        1 => Some(r.f64("lifetime")?),
        f => return Err(berr(format!("lifetime flag must be 0 or 1, got {f}"))),
    };
    let iterations =
        usize::try_from(r.u64("iterations")?).map_err(|_| berr("iterations out of range"))?;
    if r.remaining() != 0 {
        return Err(berr(format!(
            "{} trailing bytes after the response",
            r.remaining()
        )));
    }
    Ok(ScheduleResponse {
        v,
        key,
        model,
        order,
        assignment,
        sigma,
        makespan,
        deadline,
        direct_charge,
        model_cost,
        survives,
        lifetime,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse_request;
    use batsched_taskgraph::paper::{g2, g3};

    fn requests() -> Vec<ScheduleRequest> {
        let mut reqs = vec![
            ScheduleRequest::new(g2(), 75.0),
            ScheduleRequest::new(g3(), 230.5),
        ];
        let mut spelled = ScheduleRequest::new(g2(), 75.25);
        spelled.model = Some(ModelSpec::Kibam {
            c: 0.5,
            k: 0.05,
            alpha: 40_000.0,
        });
        spelled.capacity = Some(40_000.0);
        spelled.max_iterations = Some(7);
        reqs.push(spelled);
        let mut ideal = ScheduleRequest::new(g3(), 231.0);
        ideal.model = Some(ModelSpec::Ideal);
        reqs.push(ideal);
        reqs
    }

    #[test]
    fn round_trip_preserves_the_request_and_its_canonical_hash() {
        for req in requests() {
            let bin = encode_request(&req);
            let (decoded, hash) = decode_request(&bin).unwrap();
            assert_eq!(decoded, req);
            assert_eq!(hash, req.content_hash(), "decoded hash must equal key");
            // Cross-format: the JSON spelling of the same request keys
            // identically.
            let json = serde_json::to_string(&req).unwrap();
            let parsed = parse_request(&json).unwrap();
            assert_eq!(parsed.content_hash(), hash);
        }
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error_never_a_panic() {
        let bin = encode_request(&requests().remove(2));
        for cut in 0..bin.len() {
            let e = decode_request(&bin[..cut]).expect_err("truncated input must fail");
            assert!(
                matches!(e, WireError::Binary { .. } | WireError::Version { .. }),
                "cut at {cut}: {e}"
            );
        }
        // The full document still decodes.
        assert!(decode_request(&bin).is_ok());
    }

    #[test]
    fn hostile_declared_lengths_are_capped_before_allocation() {
        // task_count claims 4 billion tasks in a 30-byte document.
        let mut doc = Vec::new();
        doc.extend_from_slice(&MAGIC);
        doc.push(KIND_REQUEST);
        doc.push(BIN_VERSION);
        doc.extend_from_slice(&u32::MAX.to_le_bytes());
        doc.extend_from_slice(&[0u8; 24]);
        let e = decode_request(&doc).unwrap_err();
        assert_eq!(e.code(), "bad_binary");
        assert!(e.to_string().contains("task count"), "{e}");

        // A huge name length inside an otherwise tiny document.
        let mut doc = Vec::new();
        doc.extend_from_slice(&MAGIC);
        doc.push(KIND_REQUEST);
        doc.push(BIN_VERSION);
        doc.extend_from_slice(&1u32.to_le_bytes());
        doc.extend_from_slice(&u16::MAX.to_le_bytes());
        doc.extend_from_slice(b"ab");
        let e = decode_request(&doc).unwrap_err();
        assert_eq!(e.code(), "bad_binary");

        // An edge count past the remaining bytes.
        let base = encode_request(&ScheduleRequest::new(g2(), 75.0));
        // Find the edge-count offset by re-walking: header + tasks.
        let mut r = Reader::new(&base);
        check_header(&mut r, KIND_REQUEST, "request").unwrap();
        let tc = r.u32("tc").unwrap();
        for _ in 0..tc {
            let _ = r.str("n").unwrap();
            let pc = r.u16("pc").unwrap();
            let _ = r.take(24 * pc as usize, "pts").unwrap();
        }
        let edge_count_at = r.pos;
        let mut doc = base.clone();
        doc[edge_count_at..edge_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let e = decode_request(&doc).unwrap_err();
        assert_eq!(e.code(), "bad_binary");
        assert!(e.to_string().contains("edge count"), "{e}");
    }

    #[test]
    fn semantic_violations_reuse_the_json_paths_typed_errors() {
        let mut nan_deadline = ScheduleRequest::new(g2(), 75.0);
        nan_deadline.deadline = f64::NAN;
        let e = decode_request(&encode_request(&nan_deadline)).unwrap_err();
        assert_eq!(e.code(), "invalid_deadline");

        let mut neg_capacity = ScheduleRequest::new(g2(), 75.0);
        neg_capacity.capacity = Some(-1.0);
        let e = decode_request(&encode_request(&neg_capacity)).unwrap_err();
        assert_eq!(e.code(), "invalid_capacity");

        let mut bad_model = ScheduleRequest::new(g2(), 75.0);
        bad_model.model = Some(ModelSpec::Rv {
            beta: -1.0,
            terms: 10,
        });
        let e = decode_request(&encode_request(&bad_model)).unwrap_err();
        assert_eq!(e.code(), "invalid_model");

        let mut zero_iters = ScheduleRequest::new(g2(), 75.0);
        zero_iters.max_iterations = Some(1);
        let mut doc = encode_request(&zero_iters);
        // The trailing u64 is the iteration cap; zero it out.
        let n = doc.len();
        doc[n - 8..].copy_from_slice(&0u64.to_le_bytes());
        let e = decode_request(&doc).unwrap_err();
        assert_eq!(e.code(), "bad_request");

        // A NaN duration smuggled into the first design point.
        let base = encode_request(&ScheduleRequest::new(g2(), 75.0));
        let mut r = Reader::new(&base);
        check_header(&mut r, KIND_REQUEST, "request").unwrap();
        let _ = r.u32("tc").unwrap();
        let _ = r.str("n").unwrap();
        let _ = r.u16("pc").unwrap();
        let duration_at = r.pos;
        let mut doc = base.clone();
        doc[duration_at..duration_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let e = decode_request(&doc).unwrap_err();
        assert_eq!(e.code(), "invalid_graph");
        assert!(e.to_string().contains("duration"), "{e}");
    }

    #[test]
    fn framing_violations_are_typed() {
        // Wrong magic.
        let mut doc = encode_request(&ScheduleRequest::new(g2(), 75.0));
        doc[0] = b'X';
        assert_eq!(decode_request(&doc).unwrap_err().code(), "bad_binary");

        // A response kind byte where a request is expected.
        let mut doc = encode_request(&ScheduleRequest::new(g2(), 75.0));
        doc[4] = KIND_RESPONSE;
        assert_eq!(decode_request(&doc).unwrap_err().code(), "bad_binary");

        // An unknown version byte maps to unsupported_version.
        let mut doc = encode_request(&ScheduleRequest::new(g2(), 75.0));
        doc[5] = 9;
        assert_eq!(
            decode_request(&doc).unwrap_err().code(),
            "unsupported_version"
        );

        // Trailing garbage after a complete request.
        let mut doc = encode_request(&ScheduleRequest::new(g2(), 75.0));
        doc.push(0xFF);
        let e = decode_request(&doc).unwrap_err();
        assert_eq!(e.code(), "bad_binary");
        assert!(e.to_string().contains("trailing"), "{e}");

        // An unsorted edge table (the sortedness invariant).
        let req = ScheduleRequest::new(g2(), 75.0);
        let good = encode_request(&req);
        let mut r = Reader::new(&good);
        check_header(&mut r, KIND_REQUEST, "request").unwrap();
        let tc = r.u32("tc").unwrap();
        for _ in 0..tc {
            let _ = r.str("n").unwrap();
            let pc = r.u16("pc").unwrap();
            let _ = r.take(24 * pc as usize, "pts").unwrap();
        }
        let ec = r.u32("ec").unwrap();
        assert!(ec >= 2, "g2 has multiple edges");
        let first_edge_at = r.pos;
        let mut doc = good.clone();
        // Swap the first two edges: breaks strict (from, to) ordering.
        let (a, b) = (first_edge_at, first_edge_at + 8);
        for i in 0..8 {
            doc.swap(a + i, b + i);
        }
        let e = decode_request(&doc).unwrap_err();
        assert_eq!(e.code(), "bad_binary");
        assert!(e.to_string().contains("sorted"), "{e}");
    }

    #[test]
    fn response_round_trip_is_bit_identical_through_json() {
        let resp = ScheduleResponse {
            v: WIRE_VERSION,
            key: "00aabbccddeeff11".into(),
            model: "rv".into(),
            order: vec![0, 2, 1],
            assignment: vec![1, 0, 3],
            sigma: 1234.5678,
            makespan: 74.9,
            deadline: 75.0,
            direct_charge: 1111.25,
            model_cost: 1300.0625,
            survives: Some(true),
            lifetime: None,
            iterations: 12,
        };
        let json = serde_json::to_string(&resp).unwrap();
        let bin = encode_response(&resp);
        let decoded = decode_response(&bin).unwrap();
        assert_eq!(decoded, resp);
        assert_eq!(serde_json::to_string(&decoded).unwrap(), json);
        // Binary responses are materially smaller than their JSON twins.
        assert!(bin.len() < json.len(), "{} vs {}", bin.len(), json.len());
    }

    #[test]
    fn response_decoder_survives_truncation_and_trailing_bytes() {
        let resp = ScheduleResponse {
            v: WIRE_VERSION,
            key: "k".into(),
            model: "rv".into(),
            order: vec![0],
            assignment: vec![0],
            sigma: 1.0,
            makespan: 1.0,
            deadline: 2.0,
            direct_charge: 1.0,
            model_cost: 1.0,
            survives: None,
            lifetime: Some(3.5),
            iterations: 1,
        };
        let bin = encode_response(&resp);
        for cut in 0..bin.len() {
            let e = decode_response(&bin[..cut]).expect_err("truncated response must fail");
            assert!(
                matches!(e, WireError::Binary { .. } | WireError::Version { .. }),
                "cut {cut}: {e}"
            );
        }
        let mut doc = bin.clone();
        doc.push(0);
        assert_eq!(decode_response(&doc).unwrap_err().code(), "bad_binary");
        assert_eq!(decode_response(&bin).unwrap(), resp);
    }
}
