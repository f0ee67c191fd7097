//! Request tracing: trace ids, per-stage timing accumulation, and the
//! structured span emitted once per completed request.
//!
//! Every request carries a trace id — the client's `X-Request-Id` when it
//! supplies a sane one, otherwise an id generated from the request body's
//! content hash plus a process-wide monotonic sequence (so replays of the
//! same document are correlated by prefix but still distinguishable). The
//! id is echoed on the response, including typed errors, and stamps the
//! span line.
//!
//! A [`RequestTrace`] rides on every [`Reply`]: the worker fills in stage
//! durations as the request moves through parse → canonical hash → cache
//! probe → disk probe → solve → serialise, plus queue wait and the solver
//! phase profile ([`batsched_core::Prof`]) delta for this request. The
//! frontend that owns the connection adds what only it can see — read and
//! write time, end-to-end latency — and renders the whole thing as one
//! [`Span`] JSON line.

use crate::logfmt::Level;
use crate::service::{Disposition, Reply};
use crate::wire_bin::WireFormat;
use batsched_core::Prof;
use serde::Serialize;
use std::time::{SystemTime, UNIX_EPOCH};

/// Maximum accepted length of a client-supplied `X-Request-Id`.
pub const MAX_CLIENT_ID_LEN: usize = 128;

/// Stage timings and solver attribution accumulated inside the service
/// while answering one request. All durations in microseconds; a stage
/// that never ran stays 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RequestTrace {
    /// Queue wait: submission to worker pickup.
    pub queue_us: u64,
    /// Request-document parse.
    pub parse_us: u64,
    /// Canonical content hash of the parsed request.
    pub hash_us: u64,
    /// Memory-tier probes (alias fast path + canonical lookup).
    pub cache_us: u64,
    /// Disk-tier probe / append.
    pub disk_us: u64,
    /// The solver proper.
    pub solve_us: u64,
    /// Response serialisation + cache/disk population.
    pub serialize_us: u64,
    /// Worker thread that answered; `None` when no worker was involved
    /// (overload rejection, call-layer timeout).
    pub worker: Option<u32>,
    /// `true` when the answer came from the disk tier.
    pub served_from_disk: bool,
    /// `true` when a fault-injection rule fired while answering.
    pub injected: bool,
    /// Which wire format the request document arrived in.
    pub format: WireFormat,
    /// Solver phase counters attributable to this request.
    pub prof: Prof,
}

/// The outcome label for a reply: `hit`, `disk_hit`, `solved`,
/// `client_error`, `overloaded`, `timeout` or `internal`.
pub fn outcome(disposition: Disposition, served_from_disk: bool) -> &'static str {
    match disposition {
        Disposition::Ok { cached: true } => {
            if served_from_disk {
                "disk_hit"
            } else {
                "hit"
            }
        }
        Disposition::Ok { cached: false } => "solved",
        Disposition::ClientError => "client_error",
        Disposition::Overloaded => "overloaded",
        Disposition::Timeout => "timeout",
        Disposition::Internal => "internal",
    }
}

/// The HTTP status a disposition maps to (shared by the HTTP frontend and
/// span rendering so the two can never disagree).
pub fn status_code(disposition: Disposition) -> u16 {
    match disposition {
        Disposition::Ok { .. } => 200,
        Disposition::ClientError => 400,
        Disposition::Overloaded => 503,
        Disposition::Timeout => 504,
        Disposition::Internal => 500,
    }
}

/// Generates a trace id for a request without a client-supplied one:
/// the raw body's FNV-1a hash [`crate::wire::fnv1a64`] (correlates replays of
/// the same document; the caller computes it once and reuses it as the
/// cache's alias key) joined with a process-wide monotonic sequence (keeps
/// every request distinct, including pipelined duplicates on one
/// connection).
pub fn make_trace_id(body_hash: u64, seq: u64) -> String {
    format!("{body_hash:016x}-{seq:x}")
}

/// Validates a client-supplied `X-Request-Id`: trimmed, non-empty, at most
/// [`MAX_CLIENT_ID_LEN`] bytes, graphic ASCII only (no spaces, no control
/// bytes — the id is echoed into a response header and a JSON log line).
pub fn sanitize_client_id(raw: &str) -> Option<String> {
    let t = raw.trim();
    if t.is_empty() || t.len() > MAX_CLIENT_ID_LEN {
        return None;
    }
    if !t.bytes().all(|b| b.is_ascii_graphic()) {
        return None;
    }
    Some(t.to_string())
}

/// One completed request, rendered as a single JSON log line.
///
/// Invariant: `read_us + queue_us + parse_us + hash_us + cache_us +
/// disk_us + solve_us + serialize_us + write_us + other_us == total_us`
/// (`other_us` absorbs what no stage claims — channel hops, scheduling —
/// so the stage breakdown always reconciles with the end-to-end latency).
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Milliseconds since the Unix epoch at emission.
    pub ts_ms: u64,
    /// Severity (`info` for served requests, `warn`/`error` for failures).
    pub level: &'static str,
    /// The request's trace id.
    pub trace_id: String,
    /// Outcome label (see [`outcome`]).
    pub outcome: &'static str,
    /// HTTP status the disposition maps to.
    pub status: u16,
    /// Worker thread that answered, or -1 when none was involved.
    pub worker: i64,
    /// This process's fleet slot ([`crate::service::ServiceConfig::fleet_worker`]),
    /// or -1 for a standalone daemon — lets fleet-wide log aggregation
    /// attribute every span to the worker process that emitted it.
    pub fleet_worker: i64,
    /// End-to-end latency as observed by the frontend.
    pub total_us: u64,
    /// Reading the request off the connection.
    pub read_us: u64,
    /// Queue wait.
    pub queue_us: u64,
    /// Request parse.
    pub parse_us: u64,
    /// Canonical content hash.
    pub hash_us: u64,
    /// Memory-tier cache probes.
    pub cache_us: u64,
    /// Disk-tier probe / append.
    pub disk_us: u64,
    /// The solver proper.
    pub solve_us: u64,
    /// Response serialisation + cache population.
    pub serialize_us: u64,
    /// Writing the response to the connection.
    pub write_us: u64,
    /// Unattributed remainder (channel hops, thread scheduling).
    pub other_us: u64,
    /// Wire format the request arrived in (`json` or `binary`).
    pub wire_format: &'static str,
    /// A fault-injection rule fired while answering.
    pub injected: bool,
    /// Solver phase counters for this request.
    pub prof: Prof,
}

impl Span {
    /// Assembles the span for one reply. `read_us`/`write_us` are the
    /// frontend's connection I/O timings (0 for non-HTTP frontends);
    /// `total_us` is the frontend's end-to-end measurement and bounds the
    /// stage sum via `other_us`.
    pub fn new(
        trace_id: String,
        reply: &Reply,
        read_us: u64,
        write_us: u64,
        total_us: u64,
    ) -> Span {
        let t = &reply.trace;
        let staged = read_us
            + t.queue_us
            + t.parse_us
            + t.hash_us
            + t.cache_us
            + t.disk_us
            + t.solve_us
            + t.serialize_us
            + write_us;
        let out = outcome(reply.disposition, t.served_from_disk);
        Span {
            ts_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
            level: match reply.disposition {
                Disposition::Ok { .. } => "info",
                Disposition::ClientError | Disposition::Overloaded | Disposition::Timeout => "warn",
                Disposition::Internal => "error",
            },
            trace_id,
            outcome: out,
            status: status_code(reply.disposition),
            worker: t.worker.map_or(-1, |w| w as i64),
            fleet_worker: -1,
            total_us,
            read_us,
            queue_us: t.queue_us,
            parse_us: t.parse_us,
            hash_us: t.hash_us,
            cache_us: t.cache_us,
            disk_us: t.disk_us,
            solve_us: t.solve_us,
            serialize_us: t.serialize_us,
            write_us,
            other_us: total_us.saturating_sub(staged),
            wire_format: t.format.as_str(),
            injected: t.injected,
            prof: t.prof,
        }
    }

    /// Stamps the emitting process's fleet slot (`None` leaves the
    /// standalone sentinel -1).
    #[must_use]
    pub fn with_fleet_worker(mut self, slot: Option<u32>) -> Span {
        if let Some(slot) = slot {
            self.fleet_worker = i64::from(slot);
        }
        self
    }

    /// The severity this span logs at.
    pub fn severity(&self) -> Level {
        match self.level {
            "error" => Level::Error,
            "warn" => Level::Warn,
            _ => Level::Info,
        }
    }

    /// The span as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        // lint:allow(panic-path): serialising the span struct (owned strings
        // and numbers, no maps) cannot fail.
        serde_json::to_string(self).expect("spans serialise")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(disposition: Disposition, trace: RequestTrace) -> Reply {
        Reply {
            body: String::new(),
            disposition,
            micros: 0,
            trace,
        }
    }

    #[test]
    fn outcome_labels() {
        assert_eq!(outcome(Disposition::Ok { cached: true }, false), "hit");
        assert_eq!(outcome(Disposition::Ok { cached: true }, true), "disk_hit");
        assert_eq!(outcome(Disposition::Ok { cached: false }, false), "solved");
        assert_eq!(outcome(Disposition::Timeout, false), "timeout");
        assert_eq!(outcome(Disposition::Internal, false), "internal");
    }

    #[test]
    fn trace_ids_are_distinct_per_sequence_and_correlated_per_body() {
        let (a, b) = (
            crate::wire::fnv1a64(b"body-a"),
            crate::wire::fnv1a64(b"body-b"),
        );
        let a0 = make_trace_id(a, 0);
        let a1 = make_trace_id(a, 1);
        let b0 = make_trace_id(b, 0);
        assert_ne!(a0, a1);
        assert_eq!(a0.split('-').next(), Some(format!("{a:016x}").as_str()));
        assert_eq!(a0.split('-').next(), a1.split('-').next());
        assert_ne!(a0.split('-').next(), b0.split('-').next());
    }

    #[test]
    fn client_id_sanitisation() {
        assert_eq!(sanitize_client_id("  abc-123  "), Some("abc-123".into()));
        assert_eq!(sanitize_client_id(""), None);
        assert_eq!(sanitize_client_id("   "), None);
        assert_eq!(sanitize_client_id("has space"), None);
        assert_eq!(sanitize_client_id("ctrl\x07"), None);
        assert_eq!(sanitize_client_id(&"x".repeat(129)), None);
        assert_eq!(sanitize_client_id(&"x".repeat(128)), Some("x".repeat(128)));
    }

    #[test]
    fn span_stage_sum_reconciles_with_total() {
        let trace = RequestTrace {
            queue_us: 10,
            parse_us: 20,
            hash_us: 5,
            cache_us: 3,
            disk_us: 0,
            solve_us: 900,
            serialize_us: 40,
            worker: Some(1),
            ..RequestTrace::default()
        };
        let span = Span::new(
            "t-1".into(),
            &reply(Disposition::Ok { cached: false }, trace),
            7,
            9,
            1100,
        );
        let staged = span.read_us
            + span.queue_us
            + span.parse_us
            + span.hash_us
            + span.cache_us
            + span.disk_us
            + span.solve_us
            + span.serialize_us
            + span.write_us;
        assert_eq!(staged + span.other_us, span.total_us);
        assert_eq!(span.other_us, 1100 - 994);
        assert_eq!(span.wire_format, "json");
        assert!(span.to_json().contains("\"wire_format\":\"json\""));
        assert_eq!(span.outcome, "solved");
        assert_eq!(span.status, 200);
        assert_eq!(span.worker, 1);
        assert_eq!(span.fleet_worker, -1, "standalone daemon");
        assert_eq!(span.clone().with_fleet_worker(None).fleet_worker, -1);
        assert_eq!(span.clone().with_fleet_worker(Some(2)).fleet_worker, 2);
        let json = span.to_json();
        assert!(json.contains("\"outcome\":\"solved\""), "{json}");
        assert!(json.contains("\"trace_id\":\"t-1\""), "{json}");
        assert!(json.contains("\"prof\":{"), "{json}");
    }

    #[test]
    fn span_levels_follow_disposition() {
        let mk = |d| Span::new("t".into(), &reply(d, RequestTrace::default()), 0, 0, 0);
        assert_eq!(mk(Disposition::Ok { cached: true }).severity(), Level::Info);
        assert_eq!(mk(Disposition::Timeout).severity(), Level::Warn);
        assert_eq!(mk(Disposition::Internal).severity(), Level::Error);
    }
}
