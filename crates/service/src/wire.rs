//! The JSON wire format: versioned request/response types with a stable
//! content hash.
//!
//! A request carries a task graph (validated through the typed
//! [`batsched_taskgraph::io`] path — this is untrusted input), a deadline,
//! an optional battery-model choice and optional algorithm knobs. Two
//! requests that *mean* the same thing — regardless of wire format, field
//! order, whitespace, or whether defaults are spelled out — share one
//! **canonical form** and therefore one content hash, which is what the
//! result cache keys on. The canonical form is the binary encoding
//! ([`crate::wire_bin::encode_request`]) of [`ScheduleRequest::canonical`].
//!
//! Responses are plain data; the `cached` signal deliberately lives in
//! transport metadata (the HTTP `X-Cache` header, the
//! [`crate::service::Disposition`]) and *not* in the body, so a cache hit
//! is bit-identical to the recomputed response.

use crate::wire_bin;
use batsched_battery::model::BatteryModel;
use batsched_battery::rv::{DATE05_BETA, DATE05_TERMS};
use batsched_battery::units::MilliAmps;
use batsched_battery::{CoulombCounter, KibamModel, MilliAmpMinutes, PeukertModel, RvModel};
use batsched_core::{SchedulerConfig, SchedulerError};
use batsched_taskgraph::io::{self, IoError};
use batsched_taskgraph::TaskGraph;
use serde::json::Error as JsonError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The wire-format version this build speaks. Requests must carry `"v": 1`.
pub const WIRE_VERSION: u32 = 1;

/// Default result-cache/max-iterations knob mirrored from the scheduler
/// config, pinned here so the canonical form is stable even if the core
/// default drifts.
pub const DEFAULT_MAX_ITERATIONS: usize = 64;

/// Hard ceiling on RV series terms accepted over the wire. The term count
/// sizes a per-request allocation, so untrusted requests must not pick it
/// freely; the series contributes nothing measurable long before this.
pub const MAX_MODEL_TERMS: usize = 4096;

/// Battery-model choice by name — the service's model registry.
///
/// The scheduler's search always optimises the Rakhmatov–Vrudhula σ (that
/// is the paper's algorithm); `Rv` parameters steer the search itself,
/// while the other models select what the *report* (cost at completion,
/// lifetime) is computed with. KiBaM reports run on the incremental
/// stepper ([`batsched_battery::KibamStepper`]), so they are not quadratic
/// in profile length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Rakhmatov–Vrudhula diffusion model (the paper's eq. 1).
    Rv {
        /// Diffusion parameter β (min^{-1/2}); the paper uses 0.273.
        beta: f64,
        /// Series truncation; the paper uses 10.
        terms: usize,
    },
    /// Kinetic battery model (two wells).
    Kibam {
        /// Available-charge fraction `c ∈ (0, 1)`.
        c: f64,
        /// Diffusion rate `k > 0` (per minute).
        k: f64,
        /// Rated capacity (mA·min).
        alpha: f64,
    },
    /// Peukert's law.
    Peukert {
        /// Peukert exponent (≥ 1 for real cells).
        exponent: f64,
        /// Reference current (mA) at which capacity is rated.
        reference: f64,
    },
    /// Ideal coulomb counter (no rate-capacity or recovery effects).
    Ideal,
}

impl ModelSpec {
    /// The paper's RV setup — what an omitted `model` field means.
    pub fn default_rv() -> Self {
        Self::Rv {
            beta: DATE05_BETA,
            terms: DATE05_TERMS,
        }
    }

    /// `true` for the paper's RV setup, compared by bits: the value an
    /// omitted `model` field means, which the canonical form leaves out.
    pub(crate) fn is_default(&self) -> bool {
        matches!(self, Self::Rv { beta, terms }
            if beta.to_bits() == DATE05_BETA.to_bits() && *terms == DATE05_TERMS)
    }

    /// Short model name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Rv { .. } => "rv",
            Self::Kibam { .. } => "kibam",
            Self::Peukert { .. } => "peukert",
            Self::Ideal => "ideal",
        }
    }

    /// `(beta, terms)` the σ-minimising search should run with: the RV
    /// parameters when the request picked RV, the paper's defaults when the
    /// reporting model is a different one.
    pub fn search_params(&self) -> (f64, usize) {
        match self {
            Self::Rv { beta, terms } => (*beta, *terms),
            _ => (DATE05_BETA, DATE05_TERMS),
        }
    }

    /// Instantiates the reporting model, validating its parameters.
    ///
    /// # Errors
    ///
    /// [`WireError::InvalidModel`] when a parameter is out of range.
    pub fn build(&self) -> Result<Box<dyn BatteryModel + Send + Sync>, WireError> {
        let bad = |e: &dyn fmt::Display| WireError::InvalidModel {
            message: e.to_string(),
        };
        // Untrusted knob that sizes an allocation: `RvModel` precomputes
        // one coefficient per series term, so a hostile request could
        // declare an absurd count and OOM the worker. The series has long
        // converged by this bound (the paper uses 10 terms).
        if let Self::Rv { terms, .. } = self {
            if *terms > MAX_MODEL_TERMS {
                return Err(WireError::InvalidModel {
                    message: format!("terms must be at most {MAX_MODEL_TERMS}, got {terms}"),
                });
            }
        }
        Ok(match self {
            Self::Rv { beta, terms } => Box::new(RvModel::new(*beta, *terms).map_err(|e| bad(&e))?),
            Self::Kibam { c, k, alpha } => Box::new(
                KibamModel::new(*c, *k, MilliAmpMinutes::new(*alpha)).map_err(|e| bad(&e))?,
            ),
            Self::Peukert {
                exponent,
                reference,
            } => Box::new(
                PeukertModel::new(*exponent, MilliAmps::new(*reference)).map_err(|e| bad(&e))?,
            ),
            Self::Ideal => Box::new(CoulombCounter::new()),
        })
    }
}

/// A versioned scheduling request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleRequest {
    /// Wire-format version; must equal [`WIRE_VERSION`].
    pub v: u32,
    /// The task graph to schedule (untrusted; fully revalidated).
    pub graph: TaskGraph,
    /// Deadline in minutes (positive, finite).
    pub deadline: f64,
    /// Battery model for the report; `None` means the paper's RV setup.
    pub model: Option<ModelSpec>,
    /// Rated capacity (mA·min): when present the response carries a
    /// lifetime verdict under the chosen model.
    pub capacity: Option<f64>,
    /// Cap on outer scheduler iterations; `None` means
    /// [`DEFAULT_MAX_ITERATIONS`].
    pub max_iterations: Option<usize>,
}

impl ScheduleRequest {
    /// A request with every optional field defaulted.
    pub fn new(graph: TaskGraph, deadline: f64) -> Self {
        Self {
            v: WIRE_VERSION,
            graph,
            deadline,
            model: None,
            capacity: None,
            max_iterations: None,
        }
    }

    /// The canonical twin of this request: version pinned, every optional
    /// field that equals its default omitted. Two requests with equal
    /// canonical forms are answered identically, so the cache may treat
    /// them as one.
    pub fn canonical(&self) -> ScheduleRequest {
        let (model, max_iterations) = self.canonical_options();
        ScheduleRequest {
            v: WIRE_VERSION,
            graph: self.graph.clone(),
            deadline: self.deadline,
            model: model.cloned(),
            capacity: self.capacity,
            max_iterations,
        }
    }

    /// The model and iteration cap as the canonical form spells them: a
    /// field equal to its default, compared by bits, is left out — as the
    /// encoders leave out a field the caller never set.
    fn canonical_options(&self) -> (Option<&ModelSpec>, Option<usize>) {
        (
            self.model.as_ref().filter(|m| !m.is_default()),
            self.max_iterations.filter(|&n| n != DEFAULT_MAX_ITERATIONS),
        )
    }

    /// `true` when no optional field spells its default, so this request
    /// is its own canonical twin and its binary encoding hashes to its key.
    pub(crate) fn spells_no_default(&self) -> bool {
        let (model, max_iterations) = self.canonical_options();
        model.is_some() == self.model.is_some() && max_iterations == self.max_iterations
    }

    /// The model and iteration cap this request runs with: its own, or
    /// the defaults.
    fn defaulted(&self) -> (ModelSpec, usize) {
        (
            self.model.clone().unwrap_or_else(ModelSpec::default_rv),
            self.max_iterations.unwrap_or(DEFAULT_MAX_ITERATIONS),
        )
    }

    /// The cache key: [`xxh64`] over the binary encoding of
    /// [`Self::canonical`]. That encoding spells every number as its f64
    /// bits and every list in the graph's normalised order, so it is exact
    /// and unique; both wire formats decode to a [`ScheduleRequest`] and
    /// key through this one function. A binary body that spells no default
    /// *is* that encoding, so the service keys it by the hash of the bytes
    /// it received ([`crate::wire_bin::decode_request`]). The canonical
    /// twin is encoded from a borrow, so keying never clones the graph.
    /// Key values are opaque and may change between releases.
    pub fn content_hash(&self) -> u64 {
        let (model, max_iterations) = self.canonical_options();
        xxh64(&wire_bin::encode_request_with(self, model, max_iterations))
    }

    /// The content hash as the 16-hex-digit cache key echoed in responses.
    pub fn key(&self) -> String {
        key_hex(self.content_hash())
    }
}

/// A content hash spelled as the 16-hex-digit `key` responses echo.
pub(crate) fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Typed failure modes of [`parse_request`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The line is not valid JSON.
    Syntax {
        /// Parser message.
        message: String,
    },
    /// A required envelope field is absent.
    MissingField {
        /// The field name.
        field: &'static str,
    },
    /// An envelope field has the wrong type or shape.
    BadField {
        /// The field name.
        field: &'static str,
        /// What was wrong.
        message: String,
    },
    /// The request speaks a version this build does not.
    Version {
        /// The version the request carried.
        found: u32,
    },
    /// The embedded task graph was rejected (typed detail inside).
    Graph(IoError),
    /// Deadline not a positive finite number of minutes.
    InvalidDeadline {
        /// The offending value.
        deadline: f64,
    },
    /// Capacity not a positive finite number of mA·min.
    InvalidCapacity {
        /// The offending value.
        capacity: f64,
    },
    /// Battery-model parameters out of range or unknown model name.
    InvalidModel {
        /// What was wrong.
        message: String,
    },
    /// A binary-format framing problem: bad magic, truncated section,
    /// oversize declared length, or an ordering-invariant violation (see
    /// [`crate::wire_bin`] and `docs/WIRE.md`).
    Binary {
        /// What was wrong.
        message: String,
    },
}

impl WireError {
    /// A JSON document that is not an object.
    pub(crate) fn not_an_object() -> Self {
        Self::BadField {
            field: "(root)",
            message: "expected a JSON object".into(),
        }
    }

    /// Stable machine-readable error code for the response body.
    pub fn code(&self) -> &'static str {
        match self {
            Self::Syntax { .. } => "bad_json",
            Self::MissingField { .. } | Self::BadField { .. } => "bad_request",
            Self::Version { .. } => "unsupported_version",
            Self::Graph(_) => "invalid_graph",
            Self::InvalidDeadline { .. } => "invalid_deadline",
            Self::InvalidCapacity { .. } => "invalid_capacity",
            Self::InvalidModel { .. } => "invalid_model",
            Self::Binary { .. } => "bad_binary",
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Syntax { message } => write!(f, "invalid JSON: {message}"),
            Self::MissingField { field } => write!(f, "missing field `{field}`"),
            Self::BadField { field, message } => write!(f, "field `{field}`: {message}"),
            Self::Version { found } => write!(
                f,
                "unsupported wire version {found} (this build speaks {WIRE_VERSION})"
            ),
            Self::Graph(e) => write!(f, "invalid graph: {e}"),
            Self::InvalidDeadline { deadline } => {
                write!(f, "deadline must be positive and finite, got {deadline}")
            }
            Self::InvalidCapacity { capacity } => {
                write!(f, "capacity must be positive and finite, got {capacity}")
            }
            Self::InvalidModel { message } => write!(f, "invalid battery model: {message}"),
            Self::Binary { message } => write!(f, "invalid binary request: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Parses and fully validates one request document in a single pass (the
/// streaming decoder in `wire_json.rs`). The graph goes through the typed
/// [`io::GraphFields::build`] checks (typed rejection of duplicate edges,
/// bad numbers, cycles, …); envelope numbers are range-checked; model
/// parameters are instantiated once to validate them.
///
/// # Errors
///
/// Every [`WireError`] variant is reachable; see its docs.
pub fn parse_request(doc: &str) -> Result<ScheduleRequest, WireError> {
    crate::wire_json::decode(doc)
}

/// The tree path [`parse_request`] replaced: parse the document into a
/// `Value` tree, then deserialise the fields out of it. Kept as the oracle
/// the streaming decoder is tested against (same request or same error).
#[doc(hidden)]
pub fn parse_request_reference(doc: &str) -> Result<ScheduleRequest, WireError> {
    let v = serde::json::parse(doc).map_err(|e| WireError::Syntax {
        message: e.to_string(),
    })?;
    let obj = v.as_obj().ok_or_else(WireError::not_an_object)?;
    let member = |key: &str| obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    Fields {
        v: member("v").map(Deserialize::from_value),
        graph: member("graph").map(io::GraphFields::from_value),
        deadline: member("deadline").map(Deserialize::from_value),
        model: member("model").map(Deserialize::from_value),
        capacity: member("capacity").map(Deserialize::from_value),
        max_iterations: member("max_iterations").map(Deserialize::from_value),
    }
    .into_request()
}

/// The request fields of one JSON document, each decoded on its own: `None`
/// for an absent key, else the first occurrence's value or type error.
/// Both JSON decoders fill one; [`Fields::into_request`] judges it.
#[derive(Debug, Default)]
pub(crate) struct Fields {
    pub(crate) v: Option<Result<u32, JsonError>>,
    pub(crate) graph: Option<io::GraphFields>,
    pub(crate) deadline: Option<Result<f64, JsonError>>,
    pub(crate) model: Option<Result<Option<ModelSpec>, JsonError>>,
    pub(crate) capacity: Option<Result<Option<f64>, JsonError>>,
    pub(crate) max_iterations: Option<Result<Option<usize>, JsonError>>,
}

impl Fields {
    /// Validates the fields in one fixed order — `v`, `graph`, `deadline`,
    /// `model`, `capacity`, `max_iterations` — so a document with several
    /// faults always reports the same one. `null` means absent for the
    /// three optional fields.
    pub(crate) fn into_request(self) -> Result<ScheduleRequest, WireError> {
        let missing = |field: &'static str| WireError::MissingField { field };
        let bad = |field: &'static str| {
            move |e: JsonError| WireError::BadField {
                field,
                message: e.to_string(),
            }
        };

        let version = self.v.ok_or(missing("v"))?.map_err(bad("v"))?;
        if version != WIRE_VERSION {
            return Err(WireError::Version { found: version });
        }

        let graph = self
            .graph
            .ok_or(missing("graph"))?
            .build()
            .map_err(WireError::Graph)?;
        // The binary encoding is the canonical form, and it counts name
        // bytes and design points in 16 bits: a graph it cannot spell
        // exactly would have no unique key, so it is not admitted.
        let cap = usize::from(u16::MAX);
        if let Some(t) = graph
            .task_ids()
            .map(|id| graph.task(id))
            .find(|t| t.name.len() > cap || t.points.len() > cap)
        {
            return Err(WireError::Graph(IoError::Shape {
                message: format!(
                    "task names are capped at {cap} bytes and design points at {cap} per task; \
                     a task has {} bytes and {} points",
                    t.name.len(),
                    t.points.len()
                ),
            }));
        }

        let deadline = self
            .deadline
            .ok_or(missing("deadline"))?
            .map_err(bad("deadline"))?;
        if !(deadline.is_finite() && deadline > 0.0) {
            return Err(WireError::InvalidDeadline { deadline });
        }

        let model = self
            .model
            .unwrap_or(Ok(None))
            .map_err(|e| WireError::InvalidModel {
                message: e.to_string(),
            })?;
        if let Some(spec) = &model {
            spec.build()?; // validate parameters now, with a typed error
        }

        let capacity = self.capacity.unwrap_or(Ok(None)).map_err(bad("capacity"))?;
        if let Some(c) = capacity {
            if !(c.is_finite() && c > 0.0) {
                return Err(WireError::InvalidCapacity { capacity: c });
            }
        }

        let max_iterations = self
            .max_iterations
            .unwrap_or(Ok(None))
            .map_err(bad("max_iterations"))?;
        if max_iterations == Some(0) {
            return Err(WireError::BadField {
                field: "max_iterations",
                message: "must be at least 1".into(),
            });
        }

        Ok(ScheduleRequest {
            v: version,
            graph,
            deadline,
            model,
            capacity,
            max_iterations,
        })
    }
}

/// A successful scheduling answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleResponse {
    /// Wire-format version.
    pub v: u32,
    /// Canonical content hash of the request this answers (hex).
    pub key: String,
    /// Reporting battery-model name.
    pub model: String,
    /// Task indices in execution order.
    pub order: Vec<usize>,
    /// Task-indexed design-point columns (0 = fastest).
    pub assignment: Vec<usize>,
    /// RV battery cost σ of the schedule (mA·min) — what the search minimised.
    pub sigma: f64,
    /// Makespan (minutes).
    pub makespan: f64,
    /// The deadline the schedule meets (echoed from the request).
    pub deadline: f64,
    /// Charge actually delivered, `Σ I·D` (mA·min).
    pub direct_charge: f64,
    /// Apparent charge at completion under the reporting model (mA·min).
    pub model_cost: f64,
    /// `Some(true)` when a capacity was given and the battery survives the
    /// whole schedule; `Some(false)` when it dies first; `None` without a
    /// capacity.
    pub survives: Option<bool>,
    /// First instant the battery dies (minutes); `None` when it survives or
    /// no capacity was given.
    pub lifetime: Option<f64>,
    /// Outer scheduler iterations executed.
    pub iterations: usize,
}

/// A typed failure answer. `error` is a stable machine-readable code
/// (`bad_json`, `invalid_graph`, `infeasible`, `overloaded`, `timeout`,
/// `internal`, …); `message` is for humans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Wire-format version.
    pub v: u32,
    /// Stable machine-readable error code.
    pub error: String,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorResponse {
    /// Builds an error body from a code and message.
    pub fn new(code: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            v: WIRE_VERSION,
            error: code.into(),
            message: message.into(),
        }
    }

    /// The typed body for a request-parse failure.
    pub fn from_wire(e: &WireError) -> Self {
        Self::new(e.code(), e.to_string())
    }

    /// The typed body for a scheduler failure. Infeasible deadlines are the
    /// caller's problem (`infeasible`); internal search failures are ours.
    pub fn from_scheduler(e: &SchedulerError) -> Self {
        let code = match e {
            SchedulerError::DeadlineInfeasible { .. } => "infeasible",
            SchedulerError::InvalidDeadline { .. } => "invalid_deadline",
            SchedulerError::InvalidConfig { .. } => "invalid_config",
            SchedulerError::WindowSearchFailed { .. } => "internal",
        };
        Self::new(code, e.to_string())
    }

    /// The typed body for a full queue.
    pub fn overloaded(queue_capacity: usize) -> Self {
        Self::new(
            "overloaded",
            format!("request queue full (capacity {queue_capacity}); retry later"),
        )
    }

    /// The typed body for a request that exceeded its deadline.
    pub fn timeout(budget: std::time::Duration) -> Self {
        Self::new(
            "timeout",
            format!(
                "request exceeded its {}ms deadline; retry later",
                budget.as_millis()
            ),
        )
    }

    /// Compact JSON body.
    pub fn to_json(&self) -> String {
        // lint:allow(panic-path): the typed error body is two owned strings;
        // serialising it cannot fail.
        serde_json::to_string(self).expect("error responses always serialise")
    }
}

/// XXH64 with seed 0 (Yann Collet's published algorithm: four 64-bit
/// lanes over 32-byte stripes, then the tail and an avalanche). It is the
/// one hash of the service: it hashes the canonical binary encoding into
/// the cache key ([`ScheduleRequest::content_hash`]) and raw bodies into
/// the cache's alias index, fleet routing and trace ids. Not
/// cryptographic: the alias index re-verifies the stored document
/// byte-for-byte before replaying, so a raw-body collision costs a cache
/// miss, never a wrong answer. A collision between the keys of two
/// *different* requests would conflate their cache slots; at 64 bits and
/// few-hundred-entry caches that risk is accepted and documented in
/// `docs/SERVICE.md`.
pub fn xxh64(input: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    let round = |acc: u64, lane: u64| {
        acc.wrapping_add(lane.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let word = |bytes: &[u8; 8]| u64::from_le_bytes(*bytes);

    let mut stripes = input.chunks_exact(32);
    let mut h = if input.len() < 32 {
        P5
    } else {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, bytes) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                if let Some(bytes) = bytes.first_chunk() {
                    *lane = round(*lane, word(bytes));
                }
            }
        }
        let [a, b, c, d] = lanes;
        let h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.iter().fold(h, |h, &lane| {
            (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
        })
    };
    h = h.wrapping_add(input.len() as u64);

    let mut tail = stripes.remainder();
    while let Some((bytes, rest)) = tail.split_first_chunk::<8>() {
        h = (h ^ round(0, word(bytes)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        tail = rest;
    }
    if let Some((bytes, rest)) = tail.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*bytes)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = rest;
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// FNV-1a 64-bit, the service's hash before [`xxh64`]. The service no
/// longer calls it. It stays because the benchmark under `perfbench/`
/// calls it by name: its CPU-pinning calibration loop times it over
/// 1 MiB, so swapping the hash behind the name would change how the
/// benchmark picks its CPU. ROADMAP item 10 moves those callers off it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds the scheduler configuration a request asks for.
pub fn scheduler_config(req: &ScheduleRequest) -> SchedulerConfig {
    let (spec, max_iterations) = req.defaulted();
    let (beta, terms) = spec.search_params();
    SchedulerConfig {
        beta,
        series_terms: terms,
        max_iterations,
        ..SchedulerConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsched_taskgraph::paper::g2;

    #[test]
    fn canonicalisation_is_field_order_and_default_insensitive() {
        let g = g2();
        let spelled = ScheduleRequest {
            v: 1,
            graph: g.clone(),
            deadline: 75.0,
            model: Some(ModelSpec::default_rv()),
            capacity: None,
            max_iterations: Some(DEFAULT_MAX_ITERATIONS),
        };
        let terse = ScheduleRequest::new(g, 75.0);
        assert_eq!(spelled.content_hash(), terse.content_hash());

        // Spelled-out defaults in the document hash identically after
        // parsing, and the canonical form leaves them out.
        let doc = serde_json::to_string(&spelled).unwrap();
        let parsed = parse_request(&doc).unwrap();
        assert_eq!(parsed.content_hash(), terse.content_hash());
        assert_eq!(spelled.canonical(), terse);
        assert!(terse.spells_no_default() && !spelled.spells_no_default());
    }

    #[test]
    fn defaults_are_compared_by_bits() {
        let mut req = ScheduleRequest::new(g2(), 75.0);
        req.model = Some(ModelSpec::Rv {
            beta: f64::from_bits(DATE05_BETA.to_bits() + 1),
            terms: DATE05_TERMS,
        });
        assert!(
            req.spells_no_default(),
            "a neighbouring β is not the default"
        );
        assert_eq!(req.canonical().model, req.model);
        req.max_iterations = Some(DEFAULT_MAX_ITERATIONS + 1);
        assert!(req.spells_no_default());
        req.max_iterations = Some(DEFAULT_MAX_ITERATIONS);
        assert!(!req.spells_no_default());
        assert_eq!(req.canonical().max_iterations, None);
    }

    #[test]
    fn different_requests_hash_differently() {
        let g = g2();
        let a = ScheduleRequest::new(g.clone(), 75.0);
        let b = ScheduleRequest::new(g.clone(), 76.0);
        let mut c = ScheduleRequest::new(g, 75.0);
        c.model = Some(ModelSpec::Ideal);
        assert_ne!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn parse_rejects_each_failure_mode_with_the_right_code() {
        let ok = serde_json::to_string(&ScheduleRequest::new(g2(), 75.0)).unwrap();
        assert!(parse_request(&ok).is_ok());

        let cases: Vec<(String, &str)> = vec![
            ("{ nope".into(), "bad_json"),
            ("[1,2,3]".into(), "bad_request"),
            (ok.replace("\"v\":1", "\"v\":99"), "unsupported_version"),
            (
                ok.replace("\"deadline\":75", "\"deadline\":-5"),
                "invalid_deadline",
            ),
            (
                ok.replace("\"deadline\":75", "\"deadline\":1e999"),
                "invalid_deadline",
            ),
            (
                ok.replace("\"capacity\":null", "\"capacity\":-1"),
                "invalid_capacity",
            ),
            (
                ok.replace(
                    "\"model\":null",
                    "\"model\":{\"Rv\":{\"beta\":-1,\"terms\":10}}",
                ),
                "invalid_model",
            ),
            (
                ok.replace("\"model\":null", "\"model\":{\"Frobnicator\":{}}"),
                "invalid_model",
            ),
            (
                ok.replace("\"max_iterations\":null", "\"max_iterations\":0"),
                "bad_request",
            ),
        ];
        for (doc, code) in cases {
            let e = parse_request(&doc).unwrap_err();
            assert_eq!(e.code(), code, "doc: {doc}\nerr: {e}");
        }

        // Missing required fields.
        assert_eq!(
            parse_request(r#"{"v":1}"#).unwrap_err().code(),
            "bad_request"
        );
        // Graph problems carry the invalid_graph code.
        let bad_graph = ok.replace("\"edges\":[", "\"edges\":[[0,1],[0,1],");
        assert_eq!(
            parse_request(&bad_graph).unwrap_err().code(),
            "invalid_graph"
        );
    }

    #[test]
    fn model_registry_builds_every_model() {
        for (spec, built_name) in [
            (ModelSpec::default_rv(), "rakhmatov-vrudhula"),
            (
                ModelSpec::Kibam {
                    c: 0.5,
                    k: 0.05,
                    alpha: 40_000.0,
                },
                "kibam",
            ),
            (
                ModelSpec::Peukert {
                    exponent: 1.2,
                    reference: 300.0,
                },
                "peukert",
            ),
            (ModelSpec::Ideal, "coulomb-counter"),
        ] {
            let m = spec.build().unwrap();
            assert_eq!(m.name(), built_name, "spec {}", spec.name());
        }
        assert!(ModelSpec::Kibam {
            c: 1.5,
            k: 0.05,
            alpha: 1.0
        }
        .build()
        .is_err());
    }

    #[test]
    fn xxh64_matches_the_published_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one 32-byte stripe, then a 4-byte and a 3-byte tail.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn every_single_bit_flip_changes_about_half_the_output_bits() {
        use batsched_battery::units::{MilliAmps, Minutes, Volts};
        use batsched_taskgraph::DesignPoint;
        let mut b = TaskGraph::builder();
        for t in 0..40 {
            let points = (0..4)
                .map(|j| {
                    DesignPoint::with_voltage(
                        MilliAmps::new(400.0 - 50.0 * f64::from(j) - f64::from(t)),
                        Minutes::new(1.0 + f64::from(j) + f64::from(t) / 8.0),
                        Volts::new(1.0),
                    )
                })
                .collect();
            b.task(format!("t{t}"), points);
        }
        let mut body = wire_bin::encode_request(&ScheduleRequest::new(b.build().unwrap(), 500.0));
        assert!((4000..4200).contains(&body.len()), "{} bytes", body.len());
        let base = xxh64(&body);
        let mut seen = std::collections::HashSet::from([base]);
        let mut flipped_bits = 0u64;
        let bits = body.len() * 8;
        for bit in 0..bits {
            body[bit / 8] ^= 1 << (bit % 8);
            let h = xxh64(&body);
            body[bit / 8] ^= 1 << (bit % 8);
            assert!(seen.insert(h), "bit {bit} collides");
            flipped_bits += u64::from((h ^ base).count_ones());
        }
        let mean = flipped_bits as f64 / bits as f64;
        assert!((mean - 32.0).abs() <= 2.0, "mean flipped bits {mean}");
    }

    #[test]
    fn the_key_hashes_the_binary_encoding_of_the_canonical_twin() {
        use batsched_battery::units::{MilliAmps, Minutes, Volts};
        use batsched_taskgraph::paper::g3;
        use batsched_taskgraph::DesignPoint;
        // A graph whose task name needs JSON escaping and is not ASCII.
        let mut b = TaskGraph::builder();
        b.task(
            "quote\" back\\slash \n\t ctrl\u{1} ünïcödé",
            vec![DesignPoint::with_voltage(
                MilliAmps::new(100.0),
                Minutes::new(1.5),
                Volts::new(1.0),
            )],
        );
        let hostile = b.build().unwrap();
        // Every model kind, plus defaults left out and spelled out.
        let mut terse = vec![
            ScheduleRequest::new(g2(), 75.0),
            ScheduleRequest::new(g3(), 230.5),
            ScheduleRequest::new(hostile, 10.0),
        ];
        let mut capped = ScheduleRequest::new(g2(), 75.25);
        capped.capacity = Some(40_000.0);
        capped.max_iterations = Some(7);
        terse.push(capped);
        for model in [
            ModelSpec::Ideal,
            ModelSpec::Kibam {
                c: 0.5,
                k: 0.05,
                alpha: 40_000.0,
            },
            ModelSpec::Peukert {
                exponent: 1.2,
                reference: 300.0,
            },
        ] {
            let mut r = ScheduleRequest::new(g2(), 75.0);
            r.model = Some(model);
            terse.push(r);
        }
        let mut keys = std::collections::BTreeSet::new();
        for req in &terse {
            let spelled = req.canonical();
            assert_eq!(
                req.content_hash(),
                xxh64(&wire_bin::encode_request(&spelled))
            );
            assert_eq!(spelled.content_hash(), req.content_hash(), "twins split");
            // The JSON spelling of either twin keys the same.
            for twin in [req, &spelled] {
                let parsed = parse_request(&serde_json::to_string(twin).unwrap()).unwrap();
                assert_eq!(parsed.content_hash(), req.content_hash());
            }
            keys.insert(req.content_hash());
        }
        assert_eq!(keys.len(), terse.len(), "distinct requests share a key");
    }

    #[test]
    fn graphs_the_binary_encoding_cannot_spell_are_not_admitted() {
        use batsched_battery::units::{MilliAmps, Minutes, Volts};
        use batsched_taskgraph::DesignPoint;
        let mut b = TaskGraph::builder();
        b.task(
            "x".repeat(usize::from(u16::MAX) + 1),
            vec![DesignPoint::with_voltage(
                MilliAmps::new(100.0),
                Minutes::new(1.5),
                Volts::new(1.0),
            )],
        );
        let req = ScheduleRequest::new(b.build().unwrap(), 10.0);
        let e = parse_request(&serde_json::to_string(&req).unwrap()).unwrap_err();
        assert_eq!(e.code(), "invalid_graph", "{e}");
    }
}
