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
//! A [`RequestTrace`] rides on every [`Reply`]: the service fills in the
//! time of each [`Stage`] it runs as the request moves through the memory
//! cache's raw-bytes alias probe → parse → canonical hash → canonical
//! cache probe → disk probe (on the submitting thread) → queue wait →
//! solve → serialise (on a worker), plus the solver phase profile
//! ([`batsched_core::Prof`]) delta for this request. A request answered
//! before the queue — a hit or a client error — has no worker and a zero
//! queue wait.
//! The frontend that owns the connection adds what only it can see — read
//! and write time, end-to-end latency — and renders the whole thing as
//! one [`Span`] JSON line.

use crate::logfmt::Level;
use crate::service::Reply;
use crate::wire_bin::WireFormat;
use batsched_core::Prof;
use serde::json::Value;
use serde::Serialize;
use std::time::{SystemTime, UNIX_EPOCH};

/// Maximum accepted length of a client-supplied `X-Request-Id`.
pub const MAX_CLIENT_ID_LEN: usize = 128;

/// Who observes a stage into the `batsched_stage_duration_us` histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    /// The service core, once per request it answers, on the submitting
    /// thread or on a worker; a stage that did not run observes 0 µs.
    Worker,
    /// The HTTP frontend, once per `/v1/schedule` request it answers.
    Http,
}

/// Declares [`Stage`] from one table: each stage once, in exposition
/// order, with its label and its [`Observer`].
macro_rules! stages {
    ($($(#[$doc:meta])* $stage:ident $label:literal $observer:ident,)*) => {
        /// A timed stage of a request. Its order is the exposition order of
        /// the span keys and of the `stage` histogram labels.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stage {
            $($(#[$doc])* $stage,)*
        }

        impl Stage {
            /// Every stage, in exposition order.
            pub const ALL: [Stage; [$($label),*].len()] = [$(Stage::$stage),*];

            /// The `stage` label of `batsched_stage_duration_us`.
            pub const fn label(self) -> &'static str {
                match self {
                    $(Stage::$stage => $label,)*
                }
            }

            /// Who observes this stage into its histogram.
            pub const fn observer(self) -> Observer {
                match self {
                    $(Stage::$stage => Observer::$observer,)*
                }
            }
        }
    };
}

stages! {
    /// Reading the request off the connection.
    Read "read" Http,
    /// Queue wait: enqueue to worker pickup (0 for a request answered
    /// before the queue).
    Queue "queue" Worker,
    /// Decoding the body in its wire format (JSON parse or binary decode).
    Parse "parse" Worker,
    /// The canonical content hash of the decoded request.
    Hash "hash" Worker,
    /// Memory-tier probes (raw-bytes alias probe + canonical lookup).
    Cache "cache" Worker,
    /// Disk-tier probe / append.
    Disk "disk" Worker,
    /// The solver proper.
    Solve "solve" Worker,
    /// Response serialisation + cache population.
    Serialize "serialize" Worker,
    /// Writing the response to the connection.
    Write "write" Http,
}

/// Stage timings and solver attribution accumulated while answering one
/// request. Stage times are microseconds, one per [`Stage`] (read with
/// [`RequestTrace::us`]); a stage that never ran stays 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RequestTrace {
    pub(crate) stage_us: [u64; Stage::ALL.len()],
    /// Worker thread that answered; `None` when no worker was involved
    /// (a hit or client error answered before the queue, an overload
    /// rejection, a call-layer timeout).
    pub worker: Option<u32>,
    /// `true` when the answer came from the disk tier.
    pub served_from_disk: bool,
    /// `true` when a fault-injection rule fired while answering.
    pub injected: bool,
    /// Disk-tier I/O errors (read or append) met while answering.
    pub disk_errors: u32,
    /// Which wire format the request document arrived in.
    pub format: WireFormat,
    /// Solver phase counters attributable to this request.
    pub prof: Prof,
}

impl RequestTrace {
    /// Microseconds spent in `stage`.
    pub fn us(&self, stage: Stage) -> u64 {
        self.stage_us.get(stage as usize).copied().unwrap_or(0)
    }

    /// Adds `us` microseconds to `stage`.
    pub(crate) fn add(&mut self, stage: Stage, us: u64) {
        if let Some(total) = self.stage_us.get_mut(stage as usize) {
            *total += us;
        }
    }
}

/// Generates a trace id for a request without a client-supplied one:
/// the raw body's hash [`crate::wire::xxh64`] (correlates replays of the
/// same document; the caller computes it once and reuses it as the
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

/// One completed request, rendered as a single JSON log line: `ts_ms`,
/// `level`, `trace_id`, `outcome`, `status`, `worker`, `fleet_worker`,
/// `total_us`, one `<stage>_us` key per [`Stage`], `other_us`,
/// `wire_format`, `injected`, `disk_errors` and `prof`, in that order.
///
/// Invariant: the stage times plus `other_us` sum to `total_us`
/// (`other_us` absorbs what no stage claims — channel hops, scheduling —
/// so the stage breakdown always reconciles with the end-to-end latency).
#[derive(Debug, Clone)]
pub struct Span {
    /// Milliseconds since the Unix epoch at emission.
    pub ts_ms: u64,
    /// Severity the disposition maps to.
    pub level: Level,
    /// The request's trace id.
    pub trace_id: String,
    /// Outcome label the disposition maps to.
    pub outcome: &'static str,
    /// HTTP status the disposition maps to.
    pub status: u16,
    /// This process's fleet slot ([`crate::service::ServiceConfig::fleet_worker`]),
    /// rendered as -1 for a standalone daemon — lets fleet-wide log
    /// aggregation attribute every span to the worker process that
    /// emitted it.
    pub fleet_worker: Option<u32>,
    /// End-to-end latency as observed by the frontend.
    pub total_us: u64,
    /// Unattributed remainder (channel hops, thread scheduling).
    pub other_us: u64,
    /// The reply's stage times, worker (rendered as -1 when none was
    /// involved), wire format, fault flag and solver counters.
    pub trace: RequestTrace,
}

impl Span {
    /// Assembles the span for one reply, emitted by the process in fleet
    /// slot `fleet_worker`. `total_us` is the frontend's end-to-end
    /// measurement and bounds the stage sum via `other_us`.
    pub fn new(trace_id: String, reply: &Reply, total_us: u64, fleet_worker: Option<u32>) -> Span {
        let t = reply.trace;
        let labels = reply.disposition.labels(t.served_from_disk);
        Span {
            ts_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
            level: labels.level,
            trace_id,
            outcome: labels.outcome,
            status: labels.status,
            fleet_worker,
            total_us,
            other_us: total_us.saturating_sub(t.stage_us.iter().sum()),
            trace: t,
        }
    }

    /// The span as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        // lint:allow(panic-path): serialising the span (owned strings and
        // numbers, no maps) cannot fail.
        serde_json::to_string(self).expect("spans serialise")
    }
}

impl Serialize for Span {
    fn to_value(&self) -> Value {
        fn entry(key: impl Into<String>, value: impl Serialize) -> (String, Value) {
            (key.into(), value.to_value())
        }
        let t = &self.trace;
        let mut line = vec![
            entry("ts_ms", self.ts_ms),
            entry("level", self.level.name()),
            entry("trace_id", &self.trace_id),
            entry("outcome", self.outcome),
            entry("status", self.status),
            entry("worker", t.worker.map_or(-1, i64::from)),
            entry("fleet_worker", self.fleet_worker.map_or(-1, i64::from)),
            entry("total_us", self.total_us),
        ];
        line.extend(Stage::ALL.map(|stage| entry(format!("{}_us", stage.label()), t.us(stage))));
        line.extend([
            entry("other_us", self.other_us),
            entry("wire_format", t.format.as_str()),
            entry("injected", t.injected),
            entry("disk_errors", t.disk_errors),
            entry("prof", t.prof),
        ]);
        Value::Obj(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Disposition;

    fn reply(disposition: Disposition, trace: RequestTrace) -> Reply {
        Reply {
            body: String::new(),
            disposition,
            micros: 0,
            trace,
        }
    }

    #[test]
    fn disposition_labels() {
        let row = |d: Disposition, disk| {
            let l = d.labels(disk);
            (l.outcome, l.status, l.level, l.x_cache)
        };
        let hit = Disposition::Ok { cached: true };
        assert_eq!(row(hit, false), ("hit", 200, Level::Info, Some("hit")));
        assert_eq!(row(hit, true), ("disk_hit", 200, Level::Info, Some("hit")));
        let solved = Disposition::Ok { cached: false };
        assert_eq!(
            row(solved, false),
            ("solved", 200, Level::Info, Some("miss"))
        );
        let client = Disposition::ClientError;
        assert_eq!(row(client, false), ("client_error", 400, Level::Warn, None));
        let overloaded = Disposition::Overloaded;
        assert_eq!(
            row(overloaded, false),
            ("overloaded", 503, Level::Warn, None)
        );
        assert_eq!(
            row(Disposition::Timeout, false),
            ("timeout", 504, Level::Warn, None)
        );
        assert_eq!(
            row(Disposition::Internal, false),
            ("internal", 500, Level::Error, None)
        );
    }

    #[test]
    fn trace_ids_are_distinct_per_sequence_and_correlated_per_body() {
        let (a, b) = (crate::wire::xxh64(b"body-a"), crate::wire::xxh64(b"body-b"));
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
        let mut trace = RequestTrace {
            worker: Some(1),
            ..RequestTrace::default()
        };
        let us = [7, 10, 20, 5, 3, 0, 900, 40, 9];
        for (stage, us) in Stage::ALL.into_iter().zip(us) {
            trace.add(stage, us);
        }
        let span = Span::new(
            "t-1".into(),
            &reply(Disposition::Ok { cached: false }, trace),
            1100,
            None,
        );
        let staged: u64 = Stage::ALL.map(|stage| span.trace.us(stage)).iter().sum();
        assert_eq!(staged, 994);
        assert_eq!(staged + span.other_us, span.total_us);
        assert_eq!(span.other_us, 1100 - 994);
        assert_eq!(span.outcome, "solved");
        assert_eq!(span.status, 200);
        let json = span.to_json();
        assert!(json.contains("\"wire_format\":\"json\""), "{json}");
        assert!(json.contains("\"worker\":1,"), "{json}");
        assert!(json.contains("\"read_us\":7,\"queue_us\":10,"), "{json}");
        assert!(json.contains("\"fleet_worker\":-1,"), "standalone: {json}");
        let fleet = Span::new(
            "t-2".into(),
            &reply(Disposition::Timeout, trace),
            1,
            Some(2),
        );
        assert!(fleet.to_json().contains("\"fleet_worker\":2,"));
        assert!(json.contains("\"outcome\":\"solved\""), "{json}");
        assert!(json.contains("\"trace_id\":\"t-1\""), "{json}");
        assert!(json.contains("\"prof\":{"), "{json}");
    }

    #[test]
    fn span_line_keys_keep_their_order() {
        let dir = std::env::temp_dir().join("batsched_trace_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("key_order_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let svc = crate::service::Service::start(crate::service::ServiceConfig {
            log_json: Some(crate::logfmt::LogTarget::File(path.clone())),
            ..crate::service::ServiceConfig::default()
        });
        let req = crate::wire::ScheduleRequest::new(batsched_taskgraph::paper::g2(), 75.0);
        let line = serde_json::to_string(&req).unwrap();
        crate::jsonl::run_jsonl(&svc, line.as_bytes(), &mut Vec::new()).unwrap();
        svc.shutdown();
        let logged = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let span = serde::json::parse(logged.trim_end()).unwrap();
        let keys: Vec<&str> = span.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(
            keys,
            [
                "ts_ms",
                "level",
                "trace_id",
                "outcome",
                "status",
                "worker",
                "fleet_worker",
                "total_us",
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
                "wire_format",
                "injected",
                "disk_errors",
                "prof",
            ],
            "{logged}"
        );
    }

    #[test]
    fn span_levels_follow_disposition() {
        let mk = |d| Span::new("t".into(), &reply(d, RequestTrace::default()), 0, None);
        assert_eq!(mk(Disposition::Ok { cached: true }).level, Level::Info);
        assert_eq!(mk(Disposition::Timeout).level, Level::Warn);
        assert_eq!(mk(Disposition::Internal).level, Level::Error);
        assert!(mk(Disposition::Internal)
            .to_json()
            .contains("\"level\":\"error\""));
        assert!(mk(Disposition::Overloaded)
            .to_json()
            .contains("\"worker\":-1,"));
    }
}
