//! # batsched-service
//!
//! A concurrent batch-scheduling daemon over the DATE'05 battery-aware
//! scheduler: accept scheduling requests, solve them on a worker pool,
//! answer duplicates from a result cache.
//!
//! The pieces, bottom-up:
//!
//! * [`wire`] — the versioned JSON request/response format and the cache
//!   key: XXH64 over the binary encoding of a request's canonical twin;
//! * [`wire_bin`] — the binary wire format (`application/x-batsched-bin`):
//!   a length-prefixed encoding with a single-pass, hash-free decoder.
//!   Each request has one encoding, which is also the canonical form, so
//!   binary and JSON spellings of one request share a cache key, and a
//!   binary body that spells no default is keyed by its own hash;
//! * [`cache`] — the memory cache tier: an O(1) intrusive-list LRU,
//!   sharded across independently locked shards by content-hash bits
//!   (hit = bit-identical replay);
//! * [`disk`] — the persistent cache tier: an append-only file of
//!   length-framed records holding response bodies verbatim, indexed on
//!   start and compacted on shutdown, so a restarted daemon answers
//!   previously-seen requests warm;
//! * [`service`] — bounded job queue + worker threads, each with a
//!   reusable [`batsched_core::SolverWorkspace`] (σ-engine scratch *and*
//!   the window search's incremental-DPF journal and assignment buffers,
//!   since PR 3) so steady-state solving stays allocation-free end to
//!   end, plus stats counters and graceful shutdown;
//! * [`jsonl`] — the stdio/pipe frontend (one document per line);
//! * [`http`] — a dependency-free HTTP/1.1 frontend on `std::net` with
//!   keep-alive connections and strict request framing, plus
//!   [`http::client`], the one HTTP/1.1 client the fleet router, the load
//!   generator and the tests all speak through;
//! * [`fleet`] — fleet-scale serving: a front-tier router that spawns and
//!   supervises N worker processes, routes each request by folded
//!   content-hash bits to a consistent worker slice, and retries failed
//!   exchanges onto surviving workers (idempotency-by-content-hash makes
//!   the retry safe);
//! * [`faults`] — the fault-injection plane chaos tests arm to drive the
//!   failure paths (worker panics, slow solves, disk errors) on purpose;
//! * [`metrics`] — hand-rolled fixed-boundary log-bucket histograms and
//!   the telemetry registry (one table line per series) rendered as
//!   Prometheus text behind `GET /v1/metrics`;
//! * [`trace`] — request trace ids (client-supplied or generated),
//!   per-stage timing accumulation, and the one-span-per-request JSON
//!   rendering;
//! * [`logfmt`] — the span-log sink: level filter, per-second rate
//!   limit, file or stderr target (`--log-json`).
//!
//! The service is built to fail partially, never totally: a panicking
//! solve answers a typed `internal` error and the worker is respawned, a
//! configured request deadline answers `timeout` instead of hanging a
//! connection, and a sick disk tier trips a breaker (degraded mode:
//! memory + cold solves) that periodically re-probes until it heals.
//!
//! Backpressure is explicit: the queue is bounded and a full queue answers
//! `overloaded` immediately rather than queueing without limit.
//!
//! ```
//! use batsched_service::prelude::*;
//! use batsched_taskgraph::paper::g2;
//!
//! let svc = Service::start(ServiceConfig::default());
//! let body = serde_json::to_string(&ScheduleRequest::new(g2(), 75.0)).unwrap();
//! let cold = svc.call(body.clone());
//! let warm = svc.call(body);
//! assert_eq!(cold.body, warm.body); // the cache replays bit-identically
//! assert!(matches!(warm.disposition, Disposition::Ok { cached: true }));
//! svc.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod disk;
pub mod faults;
pub mod fleet;
pub mod http;
pub mod jsonl;
pub mod logfmt;
pub mod metrics;
pub mod service;
pub mod trace;
pub mod wire;
pub mod wire_bin;
mod wire_json;

pub use cache::{LruCache, ShardedCache};
pub use disk::{DiskTier, FsyncPolicy};
pub use faults::{FaultPlane, FaultRule, FaultSite};
pub use fleet::{
    home_slot, route, shard_path, Fleet, FleetConfig, FleetConfigError, FleetStartError,
    FleetStatus, InProcessLauncher, ProcessLauncher, WorkerHandle, WorkerLauncher, WorkerStatus,
};
pub use http::HttpServer;
pub use jsonl::{run_jsonl, JsonlSummary};
pub use logfmt::{Level, LogTarget, SpanLog};
pub use metrics::{Histogram, HistogramSnapshot, BUCKET_BOUNDS_US};
pub use service::{
    solve, ConfigError, Disposition, Reply, Service, ServiceConfig, StartError, StatsSnapshot,
};
pub use trace::{RequestTrace, Span, Stage};
pub use wire::{
    parse_request, ErrorResponse, ModelSpec, ScheduleRequest, ScheduleResponse, WireError,
    WIRE_VERSION,
};
pub use wire_bin::{decode_request, decode_response, encode_request, encode_response, WireFormat};

/// Convenient glob-import of the types almost every embedder needs.
pub mod prelude {
    pub use crate::disk::FsyncPolicy;
    pub use crate::faults::{FaultPlane, FaultRule, FaultSite};
    pub use crate::fleet::{Fleet, FleetConfig, InProcessLauncher, ProcessLauncher};
    pub use crate::http::HttpServer;
    pub use crate::jsonl::run_jsonl;
    pub use crate::service::{Disposition, Reply, Service, ServiceConfig, StartError};
    pub use crate::wire::{
        parse_request, ErrorResponse, ModelSpec, ScheduleRequest, ScheduleResponse,
    };
    pub use crate::wire_bin::{decode_request, encode_request, WireFormat};
}
