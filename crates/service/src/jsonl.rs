//! The JSONL frontend: one request document per input line, one response
//! document per output line, in order. Works over any `BufRead`/`Write`
//! pair — the CLI wires it to stdin/stdout, tests to in-memory buffers.

use crate::service::{Disposition, Service};
use crate::trace::{self, Stage};
use crate::wire;
use crate::wire_bin::WireFormat;
use std::io::{self, BufRead, Write};
use std::time::Instant;

/// What a JSONL session processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Lines answered (blank lines are skipped, not counted).
    pub requests: u64,
    /// Answers that were typed errors (client, overload, timeout or
    /// internal).
    pub errors: u64,
    /// Errors that were deadline expiries specifically (also counted in
    /// `errors`).
    pub timeouts: u64,
    /// Answers served from the result cache.
    pub cache_hits: u64,
}

/// Streams requests from `input` through `service`, writing one response
/// line per request to `output` (flushed per line, so pipes see answers
/// promptly). Blank lines are skipped. Returns when `input` reaches EOF.
///
/// # Errors
///
/// Propagates I/O errors from either side; the service itself never fails
/// a session (bad requests become typed error lines).
pub fn run_jsonl<R: BufRead, W: Write>(
    service: &Service,
    input: R,
    output: &mut W,
) -> io::Result<JsonlSummary> {
    let mut summary = JsonlSummary::default();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        // One hash of the line: the trace id's prefix and the alias key.
        let raw_key = wire::xxh64(line.as_bytes());
        let trace_id = trace::make_trace_id(raw_key, service.next_trace_seq());
        let mut reply = service.call_keyed(line.into_bytes(), WireFormat::Json, raw_key);
        summary.requests += 1;
        match reply.disposition {
            Disposition::Ok { cached } => summary.cache_hits += u64::from(cached),
            Disposition::Timeout => {
                summary.errors += 1;
                summary.timeouts += 1;
            }
            _ => summary.errors += 1,
        }
        let write_started = Instant::now();
        output.write_all(reply.body.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        let write_us = write_started.elapsed().as_micros() as u64;
        reply.trace.add(Stage::Write, write_us);
        service.log_span(trace_id, &reply, started);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::wire::ScheduleRequest;
    use batsched_taskgraph::paper::g2;

    #[test]
    fn jsonl_session_answers_in_order() {
        let svc = Service::start(ServiceConfig::default());
        let req = serde_json::to_string(&ScheduleRequest::new(g2(), 75.0)).unwrap();
        let input = format!("{req}\n\n{req}\nnot json\n");
        let mut out = Vec::new();
        let summary = run_jsonl(&svc, input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.cache_hits, 1);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], lines[1], "duplicate answered identically");
        assert!(lines[2].contains("bad_json"));
        svc.shutdown();
    }
}
