//! The service core: a bounded job queue feeding a pool of worker threads,
//! each holding reusable solver buffers, in front of the tiered result
//! cache (sharded in-memory LRU over an optional disk tier) and the stats
//! counters.
//!
//! Backpressure is explicit: [`Service::submit`] never blocks — when the
//! queue is full the caller gets a typed `overloaded` response immediately
//! instead of an unbounded pile-up. Shutdown is graceful: queued jobs are
//! drained, workers exit, and the disk tier is compacted so the next boot
//! loads a dense file.
//!
//! Failure is a first-class citizen:
//!
//! * a panicking solve is caught ([`std::panic::catch_unwind`]), answered
//!   with a typed `internal` error, and the worker is respawned by a
//!   supervisor thread so the pool never shrinks;
//! * [`ServiceConfig::request_timeout`] bounds queue-to-reply latency —
//!   an expired request answers a typed `timeout` error instead of
//!   holding its connection, and workers shed jobs that expired while
//!   queued without wasting a solve on them;
//! * disk-tier I/O errors feed a circuit breaker: after
//!   [`ServiceConfig::disk_breaker_threshold`] consecutive errors the
//!   tier is bypassed (`disk_degraded` in stats) and re-probed every
//!   [`ServiceConfig::disk_probe_interval`] until it heals. A disk
//!   failure never fails a request that can be answered from memory or a
//!   cold solve.

use crate::cache::ShardedCache;
use crate::disk::{DiskTier, FsyncPolicy};
use crate::faults::FaultPlane;
use crate::logfmt::{Level, LogTarget, SpanLog};
use crate::metrics::{self, Histogram, Kind, Read, Series};
use crate::trace::{Observer, RequestTrace, Span, Stage};
use crate::wire::{self, ErrorResponse, ScheduleRequest, ScheduleResponse, WIRE_VERSION};
use crate::wire_bin::{self, WireFormat};
use batsched_battery::units::{MilliAmpMinutes, Minutes};
use batsched_core::{schedule_in, Prof, SolverWorkspace};
use serde::Serialize;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and robustness knobs for a [`Service`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads solving requests (must be ≥ 1).
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are rejected (≥ 1).
    pub queue_capacity: usize,
    /// Aggregate result-cache entries across shards (≥ 1).
    pub cache_capacity: usize,
    /// Independently locked cache shards (rounded up to a power of two,
    /// must be ≥ 1).
    pub cache_shards: usize,
    /// Append-only record file backing the disk cache tier; `None` keeps
    /// the cache memory-only (cold after every restart).
    pub disk_path: Option<PathBuf>,
    /// Queue-to-reply deadline; an expired request answers a typed
    /// `timeout` error. `None` (the default) never expires requests.
    pub request_timeout: Option<Duration>,
    /// When disk-tier appends are fsynced.
    pub fsync_policy: FsyncPolicy,
    /// Consecutive disk-tier I/O errors that trip the degraded-mode
    /// breaker (must be ≥ 1).
    pub disk_breaker_threshold: u32,
    /// How often a tripped breaker lets one probe operation through to
    /// test whether the disk healed (must be non-zero).
    pub disk_probe_interval: Duration,
    /// Structured span-log destination (one JSON line per completed
    /// request); `None` disables span logging entirely.
    pub log_json: Option<LogTarget>,
    /// Minimum severity written to the span log.
    pub log_level: Level,
    /// Maximum span lines written per second (must be ≥ 1); lines beyond
    /// the budget are counted and reported, not written.
    pub log_rate_limit: u32,
    /// How long an HTTP keep-alive connection may sit idle between
    /// requests before the frontend closes it (must be > 0).
    pub idle_timeout: Duration,
    /// Requests served on one HTTP connection before the frontend closes
    /// it (must be ≥ 1).
    pub max_requests_per_conn: usize,
    /// This process's slot in a fleet (stamped on spans as `fleet_worker`
    /// and exported as the `batsched_fleet_worker_id` gauge); `None` for a
    /// standalone daemon.
    pub fleet_worker: Option<u32>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            cache_shards: 8,
            disk_path: None,
            request_timeout: None,
            fsync_policy: FsyncPolicy::default(),
            disk_breaker_threshold: 3,
            disk_probe_interval: Duration::from_secs(2),
            log_json: None,
            log_level: Level::Info,
            log_rate_limit: 5_000,
            idle_timeout: Duration::from_secs(5),
            max_requests_per_conn: 1024,
            fleet_worker: None,
        }
    }
}

/// A [`ServiceConfig`] that cannot produce a working service, rejected by
/// [`Service::try_start`] before any thread or file is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: nothing would ever answer.
    ZeroWorkers,
    /// `queue_capacity == 0`: every submission would be rejected.
    ZeroQueueCapacity,
    /// `cache_capacity == 0`: the result cache cannot hold a single entry.
    ZeroCacheCapacity,
    /// `cache_shards == 0`: the cache cannot be sharded zero ways.
    ZeroCacheShards,
    /// `request_timeout == Some(0)`: every request would expire on arrival.
    ZeroRequestTimeout,
    /// `fsync_policy == EveryN(0)`: the fsync cadence is meaningless.
    ZeroFsyncInterval,
    /// `disk_breaker_threshold == 0`: the breaker would trip before the
    /// first error.
    ZeroBreakerThreshold,
    /// `disk_probe_interval == 0`: a tripped breaker would never throttle.
    ZeroProbeInterval,
    /// `log_rate_limit == 0`: every span line would be dropped.
    ZeroLogRateLimit,
    /// `idle_timeout == 0`: every keep-alive connection would be closed
    /// at the first request boundary.
    ZeroIdleTimeout,
    /// `max_requests_per_conn == 0`: no connection could serve a request.
    ZeroMaxRequestsPerConn,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ConfigError::ZeroWorkers => "workers must be >= 1",
            ConfigError::ZeroQueueCapacity => "queue_capacity must be >= 1",
            ConfigError::ZeroCacheCapacity => "cache_capacity must be >= 1",
            ConfigError::ZeroCacheShards => "cache_shards must be >= 1",
            ConfigError::ZeroRequestTimeout => "request_timeout must be > 0 when set",
            ConfigError::ZeroFsyncInterval => "fsync_policy every-N interval must be >= 1",
            ConfigError::ZeroBreakerThreshold => "disk_breaker_threshold must be >= 1",
            ConfigError::ZeroProbeInterval => "disk_probe_interval must be > 0",
            ConfigError::ZeroLogRateLimit => "log_rate_limit must be >= 1",
            ConfigError::ZeroIdleTimeout => "idle_timeout must be > 0",
            ConfigError::ZeroMaxRequestsPerConn => "max_requests_per_conn must be >= 1",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// Why [`Service::try_start`] failed: a rejected configuration or a
/// file-system error opening the disk tier.
#[derive(Debug)]
pub enum StartError {
    /// The configuration was rejected before anything was started.
    Config(ConfigError),
    /// The disk cache tier could not be opened.
    Io(io::Error),
    /// The span log sink could not be opened.
    Log(io::Error),
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartError::Config(e) => write!(f, "invalid service config: {e}"),
            StartError::Io(e) => write!(f, "cannot open disk cache tier: {e}"),
            StartError::Log(e) => write!(f, "cannot open span log: {e}"),
        }
    }
}

impl std::error::Error for StartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StartError::Config(e) => Some(e),
            StartError::Io(e) => Some(e),
            StartError::Log(e) => Some(e),
        }
    }
}

impl From<ConfigError> for StartError {
    fn from(e: ConfigError) -> Self {
        StartError::Config(e)
    }
}

impl From<io::Error> for StartError {
    fn from(e: io::Error) -> Self {
        StartError::Io(e)
    }
}

/// How a request was answered — transport metadata that deliberately never
/// enters the response body (a cache hit must be bit-identical to the
/// recomputed answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// A schedule was returned; `cached` says whether it came from the LRU.
    Ok {
        /// `true` when served from the result cache.
        cached: bool,
    },
    /// The request itself was at fault (parse error, invalid graph,
    /// infeasible deadline, …).
    ClientError,
    /// The queue was full; the request was never enqueued.
    Overloaded,
    /// The request exceeded [`ServiceConfig::request_timeout`] before an
    /// answer was produced; it may be retried.
    Timeout,
    /// The service failed internally (search invariant violation, worker
    /// panic); the request may be retried.
    Internal,
}

/// How a [`Disposition`] is reported to the client and in the span log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispositionLabels {
    /// Outcome label: `hit`, `disk_hit`, `solved`, `client_error`,
    /// `overloaded`, `timeout` or `internal`.
    pub outcome: &'static str,
    /// HTTP status.
    pub status: u16,
    /// Span log severity.
    pub level: Level,
    /// `X-Cache` header value; `None` for typed errors.
    pub x_cache: Option<&'static str>,
}

impl Disposition {
    /// The one mapping from a disposition to its labels; `served_from_disk`
    /// tells a disk-tier hit from a memory hit.
    pub const fn labels(self, served_from_disk: bool) -> DispositionLabels {
        let (outcome, status, level, x_cache) = match self {
            Disposition::Ok { cached: true } => {
                let outcome = if served_from_disk { "disk_hit" } else { "hit" };
                (outcome, 200, Level::Info, Some("hit"))
            }
            Disposition::Ok { cached: false } => ("solved", 200, Level::Info, Some("miss")),
            Disposition::ClientError => ("client_error", 400, Level::Warn, None),
            Disposition::Overloaded => ("overloaded", 503, Level::Warn, None),
            Disposition::Timeout => ("timeout", 504, Level::Warn, None),
            Disposition::Internal => ("internal", 500, Level::Error, None),
        };
        DispositionLabels {
            outcome,
            status,
            level,
            x_cache,
        }
    }
}

/// One answered request: the response body plus transport metadata.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Serialised response document (schedule or typed error).
    pub body: String,
    /// Transport classification (HTTP status / `X-Cache` derive from it).
    pub disposition: Disposition,
    /// Wall-clock service time in microseconds (enqueue to answer).
    pub micros: u64,
    /// Stage timings and solver attribution for this request.
    pub trace: RequestTrace,
}

struct Job {
    /// Raw request document bytes — UTF-8 JSON or the binary wire format,
    /// as declared by `format`. Validation happens on the worker.
    body: Vec<u8>,
    format: WireFormat,
    /// `xxh64(body)`, computed once where the body arrived: the edge that
    /// hashed it for a trace id or a route reuses it as the alias key, and
    /// as the cache key of a binary body that spells no default.
    raw_key: u64,
    reply: Sender<Reply>,
    submitted: Instant,
}

/// The storage behind [`SERIES`] and [`Service::stats`].
///
/// Each stage histogram is observed by its [`Stage::observer`]: the
/// worker stages once per worker-handled request — a stage that did not
/// run observes 0 µs — so all those `_count` series agree with each other
/// and with the number of requests the workers handled; `read`/`write`
/// once per HTTP-served request. `total` is observed once per
/// [`Service::call`]; `solve_cold` only on cold solves (it feeds the solve
/// percentiles in stats).
#[derive(Debug, Default)]
struct Telemetry {
    counters: [AtomicU64; COUNTERS],
    /// The sum of every request's solver [`Prof`] delta, in
    /// [`Prof::FIELDS`] order.
    prof: [AtomicU64; Prof::FIELDS.len()],
    stages: [Histogram; Stage::ALL.len()],
    total: Histogram,
    solve_cold: Histogram,
}

impl Telemetry {
    fn bump(&self, counter: Counter) {
        if let Some(c) = self.counters.get(counter as usize) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn count(&self, counter: Counter) -> u64 {
        self.counters
            .get(counter as usize)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    fn counts(&self) -> [u64; COUNTERS] {
        self.counters.each_ref().map(|c| c.load(Ordering::Relaxed))
    }

    fn add_prof(&self, p: &Prof) {
        for (total, v) in self.prof.iter().zip(p.values()) {
            total.fetch_add(v, Ordering::Relaxed);
        }
    }

    fn prof(&self) -> Prof {
        Prof::from_values(self.prof.each_ref().map(|c| c.load(Ordering::Relaxed)))
    }

    /// Observes the stages `observer` owns from one request's trace.
    fn observe(&self, t: &RequestTrace, observer: Observer) {
        for (stage, h) in Stage::ALL.into_iter().zip(&self.stages) {
            if stage.observer() == observer {
                h.observe(t.us(stage));
            }
        }
    }
}

/// Locks a mutex, recovering from poisoning rather than propagating a dead
/// holder's panic to every later caller. Every value this crate guards so
/// stays usable after a panic:
///
/// * breaker state, the sender/supervisor options, and fleet slots and
///   connection pools are plain data with no mid-update invariant a
///   panicking holder could tear (the fleet monitor re-derives each
///   worker's state on its next pass, and stale pooled connections are
///   fenced by their epoch);
/// * the job-queue receiver is just a channel endpoint;
/// * the disk tier validates every record on read, so a torn append from
///   a mid-`put` panic is skipped at reindex time instead of corrupting
///   lookups.
///
/// Inheriting the value degrades at most one request or worker;
/// propagating the panic would wedge the daemon or the whole router.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Consecutive-error circuit breaker guarding the disk tier. Closed: every
/// operation is allowed. After `threshold` consecutive errors it opens:
/// operations are skipped (the service answers from memory and cold
/// solves) except one probe per `probe_interval`; a successful probe
/// closes it again.
struct Breaker {
    threshold: u32,
    probe_interval: Duration,
    state: Mutex<BreakerState>,
    /// Mirrors "open" for lock-free stats reads.
    degraded: AtomicBool,
}

#[derive(Default)]
struct BreakerState {
    consecutive: u32,
    open_since: Option<Instant>,
}

impl Breaker {
    fn new(threshold: u32, probe_interval: Duration) -> Self {
        Self {
            threshold,
            probe_interval,
            state: Mutex::new(BreakerState::default()),
            degraded: AtomicBool::new(false),
        }
    }

    /// Whether the next disk operation may run. While open, returns `true`
    /// once per probe interval (and restarts the interval, so concurrent
    /// callers get exactly one probe).
    fn allow(&self) -> bool {
        let mut s = lock_recover(&self.state);
        match s.open_since {
            None => true,
            Some(opened) if opened.elapsed() >= self.probe_interval => {
                s.open_since = Some(Instant::now());
                true
            }
            Some(_) => false,
        }
    }

    /// Records a successful disk operation: resets the error run and, if
    /// the breaker was open, re-arms the tier.
    fn record_ok(&self, t: &Telemetry) {
        let mut s = lock_recover(&self.state);
        s.consecutive = 0;
        if s.open_since.take().is_some() {
            self.degraded.store(false, Ordering::Relaxed);
            t.bump(Counter::DiskRearms);
        }
    }

    /// Records a failed disk operation; trips the breaker on the
    /// `threshold`-th consecutive error.
    fn record_err(&self, t: &Telemetry) {
        t.bump(Counter::DiskErrors);
        let mut s = lock_recover(&self.state);
        s.consecutive = s.consecutive.saturating_add(1);
        if s.open_since.is_none() && s.consecutive >= self.threshold {
            s.open_since = Some(Instant::now());
            self.degraded.store(true, Ordering::Relaxed);
            t.bump(Counter::DiskBreakerTrips);
        }
    }

    fn is_open(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }
}

struct Shared {
    cache: ShardedCache,
    disk: Option<Mutex<DiskTier>>,
    telemetry: Telemetry,
    logger: Option<SpanLog>,
    breaker: Breaker,
    faults: FaultPlane,
    request_timeout: Option<Duration>,
    shutting_down: AtomicBool,
    /// Monotonic sequence feeding generated trace ids.
    trace_seq: AtomicU64,
    /// Jobs accepted into the queue and not yet picked up by a worker.
    in_queue: AtomicU64,
    /// Worker threads currently alive (target is `ServiceConfig::workers`).
    workers_live: AtomicU64,
}

/// Declares [`StatsSnapshot`] around the service's event counters, so each
/// counter is one line: its [`Counter`] slot, its stats field and the
/// `/v1/metrics` counter it exports as (none: stats only).
macro_rules! stats_snapshot {
    (
        head { $($(#[$hm:meta])* $head:ident: $hty:ty,)* }
        counters { $($(#[$cm:meta])* $slot:ident $field:ident $(=> $series:literal)?,)* }
        tail { $($(#[$tm:meta])* $tail:ident: $tty:ty,)* }
    ) => {
        /// Point-in-time statistics, served by the `stats` endpoint.
        #[derive(Debug, Clone, Default, PartialEq, Serialize)]
        pub struct StatsSnapshot {
            $($(#[$hm])* pub $head: $hty,)*
            $($(#[$cm])* pub $field: u64,)*
            $($(#[$tm])* pub $tail: $tty,)*
        }

        /// A service event counter: its slot in [`Telemetry`].
        #[derive(Debug, Clone, Copy)]
        enum Counter {
            $($slot,)*
        }

        const COUNTERS: usize = [$(stringify!($field)),*].len();

        /// The exported counters' `/v1/metrics` series, in slot order.
        const COUNTER_SERIES: &[Series<Service>] = &[$($(
            Series::counter($series, |s| s.shared.telemetry.count(Counter::$slot)),
        )?)*];

        impl StatsSnapshot {
            /// A snapshot holding `counts` (in slot order) and defaults
            /// elsewhere.
            fn with_counts(counts: [u64; COUNTERS]) -> Self {
                let [$($field),*] = counts;
                Self {
                    $($field,)*
                    ..Self::default()
                }
            }
        }
    };
}

stats_snapshot! {
    head {
        /// Wire version.
        v: u32,
        /// Worker threads.
        workers: usize,
        /// Queue depth limit.
        queue_capacity: usize,
        /// Aggregate memory-cache capacity across shards.
        cache_capacity: usize,
        /// Live memory-cache entries across shards.
        cache_len: usize,
        /// Number of memory-cache shards.
        cache_shards: usize,
        /// Live entries per shard, in shard order.
        shard_occupancy: Vec<usize>,
        /// Live raw-body aliases across shards.
        cache_aliases: usize,
        /// `true` when a disk tier is configured.
        disk_enabled: bool,
        /// `true` while the disk-tier breaker is open (tier bypassed).
        disk_degraded: bool,
        /// Distinct keys persisted on the disk tier (0 without one).
        disk_entries: usize,
    }
    counters {
        /// Requests accepted into the queue.
        Received received => "batsched_received_total",
        /// Requests that arrived in the binary wire format (the remainder
        /// of `received` arrived as JSON; exported through
        /// `batsched_requests_by_format`).
        BinaryRequests binary_requests,
        /// Requests answered from a cold solve.
        Solved solved => "batsched_solved_total",
        /// Requests answered from the in-memory cache tier.
        CacheHits cache_hits => "batsched_cache_hits_total",
        /// Requests answered from the disk tier (after a memory miss).
        DiskHits disk_hits => "batsched_disk_hits_total",
        /// Requests that missed every cache tier.
        CacheMisses cache_misses => "batsched_cache_misses_total",
        /// Requests rejected as the caller's fault.
        ClientErrors client_errors => "batsched_client_errors_total",
        /// Internal failures (including caught worker panics).
        InternalErrors internal_errors => "batsched_internal_errors_total",
        /// Requests refused because the queue was full.
        Rejected rejected => "batsched_rejected_total",
        /// Requests that exceeded the configured deadline.
        Timeouts timeouts => "batsched_timeouts_total",
        /// Solver panics caught and answered as typed errors.
        WorkerPanics worker_panics => "batsched_worker_panics_total",
        /// Workers respawned after a panic (pool back at full strength).
        WorkerRespawns worker_respawns => "batsched_worker_respawns_total",
        /// Disk-tier I/O errors observed (reads and writes).
        DiskErrors disk_errors => "batsched_disk_errors_total",
        /// Times the disk breaker tripped into degraded mode.
        DiskBreakerTrips disk_breaker_trips => "batsched_disk_breaker_trips_total",
        /// Times a probe re-armed the disk tier.
        DiskRearms disk_rearms => "batsched_disk_rearms_total",
    }
    tail {
        /// Jobs queued and not yet picked up by a worker.
        queue_depth: u64,
        /// Worker threads currently alive.
        workers_live: u64,
        /// Fault-injection rules fired since startup (0 when disarmed).
        faults_injected: u64,
        /// Span log lines suppressed by the rate limiter.
        spans_dropped: u64,
        /// End-to-end latency p50 (µs), from the request-duration histogram.
        e2e_p50_us: f64,
        /// End-to-end latency p95 (µs).
        e2e_p95_us: f64,
        /// End-to-end latency p99 (µs).
        e2e_p99_us: f64,
        /// Cold-solve latency p50 (µs), from the cold-solve histogram.
        solve_p50_us: f64,
        /// Cold-solve latency p95 (µs).
        solve_p95_us: f64,
        /// Cold-solve latency p99 (µs).
        solve_p99_us: f64,
    }
}

/// The rest of the service's `/v1/metrics` table, exposed after
/// [`COUNTER_SERIES`] in this order.
const SERIES: [Series<Service>; 16] = [
    Series::counter("batsched_fault_injected_total", |s| {
        s.shared.faults.injected_total()
    }),
    Series::counter("batsched_spans_dropped_total", Service::spans_dropped),
    // `binary` is counted directly, `json` is the remainder of `received`
    // (the formats partition admissions).
    Series::labelled(
        Kind::Counter,
        "batsched_requests_by_format",
        Some("format"),
        Read::Labelled(|s| {
            let t = &s.shared.telemetry;
            let binary = t.count(Counter::BinaryRequests);
            let json = t.count(Counter::Received).saturating_sub(binary);
            vec![("json".into(), json), ("binary".into(), binary)]
        }),
    ),
    Series::gauge("batsched_queue_depth", |s| {
        s.shared.in_queue.load(Ordering::Relaxed)
    }),
    Series::gauge("batsched_workers_live", |s| {
        s.shared.workers_live.load(Ordering::Relaxed)
    }),
    Series::gauge("batsched_workers_target", |s| s.cfg.workers as u64),
    Series::gauge("batsched_disk_breaker_open", |s| {
        u64::from(s.shared.breaker.is_open())
    }),
    Series::gauge("batsched_cache_entries", |s| s.shared.cache.len() as u64),
    Series::gauge("batsched_cache_capacity", |s| {
        s.shared.cache.capacity() as u64
    }),
    Series::gauge("batsched_disk_entries", |s| s.disk_entries() as u64),
    Series::gauge("batsched_ready", |s| u64::from(s.readiness().is_ok())),
    // Only fleet workers export their slot: a standalone daemon has no
    // meaningful value to report, and an absent series is clearer than a
    // sentinel.
    Series::labelled(
        Kind::Gauge,
        "batsched_fleet_worker_id",
        None,
        Read::Labelled(|s| {
            s.cfg
                .fleet_worker
                .map(|id| (String::new(), id.into()))
                .into_iter()
                .collect()
        }),
    ),
    Series::labelled(
        Kind::Counter,
        "batsched_solver_{}_total",
        None,
        Read::Each(|s| {
            Prof::FIELDS
                .into_iter()
                .zip(s.shared.telemetry.prof().values())
                .collect()
        }),
    ),
    Series::histograms("batsched_request_duration_us", None, |s| {
        vec![(String::new(), s.shared.telemetry.total.snapshot())]
    }),
    Series::histograms("batsched_stage_duration_us", Some("stage"), |s| {
        let stages = Stage::ALL.into_iter().zip(&s.shared.telemetry.stages);
        stages
            .map(|(stage, h)| (stage.label().to_string(), h.snapshot()))
            .collect()
    }),
    Series::histograms("batsched_solve_cold_duration_us", None, |s| {
        vec![(String::new(), s.shared.telemetry.solve_cold.snapshot())]
    }),
];

/// A running scheduling service. Cheap to share behind an [`Arc`];
/// [`Service::shutdown`] takes `&self` so any frontend can trigger it.
pub struct Service {
    cfg: ServiceConfig,
    tx: Mutex<Option<SyncSender<Job>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    shared: Arc<Shared>,
}

/// One lifecycle event per worker thread, delivered to the supervisor.
enum WorkerEvent {
    /// The worker drained the queue and exited (graceful shutdown).
    Clean,
    /// The worker died after catching a solver panic (or panicked
    /// unexpectedly); its workspace is suspect and it must be replaced.
    Panicked,
}

/// Guarantees the supervisor hears about every worker exit, even one the
/// worker's own code never anticipated: the event is sent from `Drop`, so
/// an unwinding thread still reports in.
struct ExitGuard {
    events: Sender<WorkerEvent>,
    clean: bool,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        let event = if self.clean {
            WorkerEvent::Clean
        } else {
            WorkerEvent::Panicked
        };
        let _ = self.events.send(event);
    }
}

fn validate(cfg: &ServiceConfig) -> Result<(), ConfigError> {
    if cfg.workers == 0 {
        return Err(ConfigError::ZeroWorkers);
    }
    if cfg.queue_capacity == 0 {
        return Err(ConfigError::ZeroQueueCapacity);
    }
    if cfg.cache_capacity == 0 {
        return Err(ConfigError::ZeroCacheCapacity);
    }
    if cfg.cache_shards == 0 {
        return Err(ConfigError::ZeroCacheShards);
    }
    if cfg.request_timeout == Some(Duration::ZERO) {
        return Err(ConfigError::ZeroRequestTimeout);
    }
    if cfg.fsync_policy == FsyncPolicy::EveryN(0) {
        return Err(ConfigError::ZeroFsyncInterval);
    }
    if cfg.disk_breaker_threshold == 0 {
        return Err(ConfigError::ZeroBreakerThreshold);
    }
    if cfg.disk_probe_interval == Duration::ZERO {
        return Err(ConfigError::ZeroProbeInterval);
    }
    if cfg.log_rate_limit == 0 {
        return Err(ConfigError::ZeroLogRateLimit);
    }
    if cfg.idle_timeout == Duration::ZERO {
        return Err(ConfigError::ZeroIdleTimeout);
    }
    if cfg.max_requests_per_conn == 0 {
        return Err(ConfigError::ZeroMaxRequestsPerConn);
    }
    Ok(())
}

fn spawn_worker(
    id: usize,
    rx: &Arc<Mutex<Receiver<Job>>>,
    shared: &Arc<Shared>,
    events: &Sender<WorkerEvent>,
) -> JoinHandle<()> {
    let rx = Arc::clone(rx);
    let shared = Arc::clone(shared);
    let events = events.clone();
    std::thread::Builder::new()
        .name(format!("batsched-worker-{id}"))
        .spawn(move || {
            let mut guard = ExitGuard {
                events,
                clean: false,
            };
            guard.clean = worker_loop(id, &rx, &shared);
        })
        // lint:allow(panic-path): thread spawn fails only on OS thread
        // exhaustion, at which point the pool cannot run at all; the
        // supervisor treats a vanished worker as a panic and retires it.
        .expect("spawning a worker thread")
}

impl Service {
    /// Spawns the worker pool and returns the running service.
    ///
    /// # Panics
    ///
    /// On an invalid configuration or an unopenable disk tier; use
    /// [`Service::try_start`] to handle those as errors.
    pub fn start(cfg: ServiceConfig) -> Self {
        // lint:allow(panic-path): documented panicking constructor; the
        // fallible API is `try_start`, and this forwards to it.
        Self::try_start(cfg).expect("starting the service")
    }

    /// Validates the configuration, then spawns the worker pool (plus its
    /// supervisor), opening and indexing the disk cache tier when one is
    /// configured.
    ///
    /// # Errors
    ///
    /// [`StartError::Config`] for a configuration that cannot work;
    /// [`StartError::Io`] for file-system failures opening
    /// `cfg.disk_path`.
    pub fn try_start(cfg: ServiceConfig) -> Result<Self, StartError> {
        Self::try_start_with_faults(cfg, FaultPlane::disarmed())
    }

    /// [`Service::try_start`] with an armed fault-injection plane; the
    /// plane is shared with the disk tier and the worker pool. Production
    /// paths pass [`FaultPlane::disarmed`].
    ///
    /// # Errors
    ///
    /// As [`Service::try_start`].
    pub fn try_start_with_faults(
        cfg: ServiceConfig,
        faults: FaultPlane,
    ) -> Result<Self, StartError> {
        validate(&cfg)?;
        let (tx, rx) = sync_channel::<Job>(cfg.queue_capacity);
        let rx = Arc::new(Mutex::new(rx));
        let disk = match &cfg.disk_path {
            None => None,
            Some(path) => Some(Mutex::new(DiskTier::open_with(
                path,
                cfg.fsync_policy,
                faults.clone(),
            )?)),
        };
        let logger = match &cfg.log_json {
            None => None,
            Some(target) => Some(
                SpanLog::open(target, cfg.log_level, cfg.log_rate_limit)
                    .map_err(StartError::Log)?,
            ),
        };
        let shared = Arc::new(Shared {
            cache: ShardedCache::new(cfg.cache_capacity, cfg.cache_shards),
            disk,
            telemetry: Telemetry::default(),
            logger,
            breaker: Breaker::new(cfg.disk_breaker_threshold, cfg.disk_probe_interval),
            faults,
            request_timeout: cfg.request_timeout,
            shutting_down: AtomicBool::new(false),
            trace_seq: AtomicU64::new(0),
            in_queue: AtomicU64::new(0),
            workers_live: AtomicU64::new(cfg.workers as u64),
        });
        let (ev_tx, ev_rx) = std::sync::mpsc::channel::<WorkerEvent>();
        let workers = cfg.workers;
        let mut handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|k| spawn_worker(k, &rx, &shared, &ev_tx))
            .collect();
        // The supervisor owns the worker handles and the spawn loop: a
        // panicked worker is replaced (fresh thread, fresh workspace)
        // unless the service is shutting down. It keeps its own event
        // sender clone, so the loop terminates on the live count, not on
        // channel closure.
        let supervisor = {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("batsched-supervisor".into())
                .spawn(move || {
                    let mut live = workers;
                    let mut next_id = workers;
                    while live > 0 {
                        match ev_rx.recv() {
                            Ok(WorkerEvent::Clean) => {
                                live -= 1;
                                shared.workers_live.fetch_sub(1, Ordering::Relaxed);
                            }
                            Ok(WorkerEvent::Panicked) => {
                                if shared.shutting_down.load(Ordering::SeqCst) {
                                    live -= 1;
                                    shared.workers_live.fetch_sub(1, Ordering::Relaxed);
                                } else {
                                    shared.telemetry.bump(Counter::WorkerRespawns);
                                    handles.push(spawn_worker(next_id, &rx, &shared, &ev_tx));
                                    next_id += 1;
                                }
                            }
                            Err(_) => break, // unreachable: we hold ev_tx
                        }
                    }
                    for h in handles {
                        let _ = h.join();
                    }
                })
                // lint:allow(panic-path): one spawn at service start, before
                // any request is accepted; failure means the service cannot
                // exist and surfaces to the caller as the documented panic.
                .expect("spawning the supervisor thread")
        };
        Ok(Self {
            cfg,
            tx: Mutex::new(Some(tx)),
            supervisor: Mutex::new(Some(supervisor)),
            shared,
        })
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> ServiceConfig {
        self.cfg.clone()
    }

    /// The HTTP frontend's per-connection limits: idle timeout between
    /// requests and requests served before the connection is closed.
    pub(crate) fn http_limits(&self) -> (Duration, usize) {
        (self.cfg.idle_timeout, self.cfg.max_requests_per_conn)
    }

    /// The fault-injection plane the service was started with (disarmed in
    /// production); frontends probe it for connection-level fault sites.
    pub(crate) fn faults(&self) -> &FaultPlane {
        &self.shared.faults
    }

    /// Enqueues a JSON request document without blocking.
    ///
    /// # Errors
    ///
    /// When the queue is full (or the service is shutting down) the typed
    /// overload [`Reply`] is returned immediately instead of a receiver.
    pub fn submit(&self, body: String) -> Result<Receiver<Reply>, Box<Reply>> {
        self.submit_bytes(body.into_bytes(), WireFormat::Json)
    }

    /// Enqueues a raw request document in the declared wire format without
    /// blocking. The response body is always canonical JSON; frontends
    /// that negotiated a binary response transcode it at the edge.
    ///
    /// # Errors
    ///
    /// As [`Service::submit`].
    pub fn submit_bytes(
        &self,
        body: Vec<u8>,
        format: WireFormat,
    ) -> Result<Receiver<Reply>, Box<Reply>> {
        let raw_key = wire::xxh64(&body);
        self.submit_keyed(body, format, raw_key)
    }

    /// [`Service::submit_bytes`] for a body whose `xxh64` the caller
    /// already holds.
    fn submit_keyed(
        &self,
        body: Vec<u8>,
        format: WireFormat,
        raw_key: u64,
    ) -> Result<Receiver<Reply>, Box<Reply>> {
        let started = Instant::now();
        let overload = |started: Instant, telemetry: &Telemetry| {
            telemetry.bump(Counter::Rejected);
            Box::new(Reply {
                body: ErrorResponse::overloaded(self.cfg.queue_capacity).to_json(),
                disposition: Disposition::Overloaded,
                micros: started.elapsed().as_micros() as u64,
                trace: RequestTrace::default(),
            })
        };
        let guard = lock_recover(&self.tx);
        let Some(tx) = guard.as_ref() else {
            return Err(overload(started, &self.shared.telemetry));
        };
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        match tx.try_send(Job {
            body,
            format,
            raw_key,
            reply: reply_tx,
            submitted: started,
        }) {
            Ok(()) => {
                self.shared.telemetry.bump(Counter::Received);
                if format == WireFormat::Binary {
                    self.shared.telemetry.bump(Counter::BinaryRequests);
                }
                self.shared.in_queue.fetch_add(1, Ordering::Relaxed);
                Ok(reply_rx)
            }
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                Err(overload(started, &self.shared.telemetry))
            }
        }
    }

    /// Blocking convenience: submit and wait for the answer. With a
    /// configured [`ServiceConfig::request_timeout`] the wait is bounded —
    /// an expired request answers a typed `timeout` error (the worker's
    /// late reply, if any, is discarded). A worker that dies without
    /// answering yields a typed `internal` error, never a hang.
    pub fn call(&self, body: String) -> Reply {
        self.call_bytes(body.into_bytes(), WireFormat::Json)
    }

    /// [`Service::call`] for a raw document in the declared wire format.
    /// The reply body is always canonical JSON regardless of `format`.
    pub fn call_bytes(&self, body: Vec<u8>, format: WireFormat) -> Reply {
        let raw_key = wire::xxh64(&body);
        self.call_keyed(body, format, raw_key)
    }

    /// [`Service::call_bytes`] for a body whose `xxh64` the caller
    /// already holds (the frontends hash it for the trace id).
    pub(crate) fn call_keyed(&self, body: Vec<u8>, format: WireFormat, raw_key: u64) -> Reply {
        let started = Instant::now();
        let reply = self.call_inner(body, format, raw_key, started);
        // The end-to-end histogram is observed here — once per answered
        // request, whatever the outcome — so its `_count` is exactly the
        // number of requests served through this entry point.
        self.shared
            .telemetry
            .total
            .observe(started.elapsed().as_micros() as u64);
        reply
    }

    fn call_inner(
        &self,
        body: Vec<u8>,
        format: WireFormat,
        raw_key: u64,
        started: Instant,
    ) -> Reply {
        let rx = match self.submit_keyed(body, format, raw_key) {
            Ok(rx) => rx,
            Err(reply) => return *reply,
        };
        let received = match self.cfg.request_timeout {
            None => rx.recv().ok(),
            Some(budget) => {
                let remaining = budget.saturating_sub(started.elapsed());
                match rx.recv_timeout(remaining) {
                    Ok(reply) => Some(reply),
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        self.shared.telemetry.bump(Counter::Timeouts);
                        return Reply {
                            body: ErrorResponse::timeout(budget).to_json(),
                            disposition: Disposition::Timeout,
                            micros: started.elapsed().as_micros() as u64,
                            trace: RequestTrace::default(),
                        };
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => None,
                }
            }
        };
        received.unwrap_or_else(|| Reply {
            body: ErrorResponse::new("internal", "worker terminated before answering").to_json(),
            disposition: Disposition::Internal,
            micros: started.elapsed().as_micros() as u64,
            trace: RequestTrace::default(),
        })
    }

    /// Allocates the next trace-id sequence number (process-monotonic).
    pub(crate) fn next_trace_seq(&self) -> u64 {
        self.shared.trace_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Ends one request at the frontend that answered it, `started` being
    /// when that frontend began timing it: renders its span, stamped with
    /// this process's fleet slot, to the configured log sink (no-op when
    /// span logging is disabled).
    pub(crate) fn log_span(&self, trace_id: String, reply: &Reply, started: Instant) {
        if let Some(logger) = &self.shared.logger {
            let total_us = started.elapsed().as_micros() as u64;
            let span = Span::new(trace_id, reply, total_us, self.cfg.fleet_worker);
            logger.log(span.level, &span.to_json());
        }
    }

    /// Records the HTTP frontend's connection I/O stages for one request.
    pub(crate) fn observe_http(&self, trace: &RequestTrace) {
        self.shared.telemetry.observe(trace, Observer::Http);
    }

    /// Readiness for traffic: `Ok(())` when the service can serve at full
    /// capability, otherwise the reasons it cannot (shutdown begun, disk
    /// breaker open, worker pool below target).
    pub fn readiness(&self) -> Result<(), Vec<&'static str>> {
        let mut reasons = Vec::new();
        if self.shared.shutting_down.load(Ordering::SeqCst) {
            reasons.push("shutting_down");
        }
        if self.shared.breaker.is_open() {
            reasons.push("disk_degraded");
        }
        if self.shared.workers_live.load(Ordering::Relaxed) < self.cfg.workers as u64 {
            reasons.push("workers_below_target");
        }
        if reasons.is_empty() {
            Ok(())
        } else {
            Err(reasons)
        }
    }

    /// The full metrics surface in Prometheus text exposition format:
    /// request counters, queue/worker/breaker gauges, solver phase totals
    /// and the per-stage latency histograms.
    pub fn metrics_text(&self) -> String {
        let mut out = metrics::render(COUNTER_SERIES, self);
        out.push_str(&metrics::render(&SERIES, self));
        out
    }

    /// Distinct keys on the disk tier (0 without one).
    fn disk_entries(&self) -> usize {
        self.shared
            .disk
            .as_ref()
            .map_or(0, |d| lock_recover(d).len())
    }

    /// Span log lines the rate limiter suppressed.
    fn spans_dropped(&self) -> u64 {
        self.shared.logger.as_ref().map_or(0, SpanLog::dropped)
    }

    /// A consistent-enough point-in-time statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let t = &self.shared.telemetry;
        let shard_occupancy = self.shared.cache.occupancy();
        let e2e = t.total.snapshot();
        let solve_cold = t.solve_cold.snapshot();
        StatsSnapshot {
            v: WIRE_VERSION,
            workers: self.cfg.workers,
            queue_capacity: self.cfg.queue_capacity,
            cache_capacity: self.shared.cache.capacity(),
            cache_len: shard_occupancy.iter().sum(),
            cache_shards: self.shared.cache.shard_count(),
            shard_occupancy,
            cache_aliases: self.shared.cache.alias_count(),
            disk_enabled: self.shared.disk.is_some(),
            disk_degraded: self.shared.breaker.is_open(),
            disk_entries: self.disk_entries(),
            queue_depth: self.shared.in_queue.load(Ordering::Relaxed),
            workers_live: self.shared.workers_live.load(Ordering::Relaxed),
            faults_injected: self.shared.faults.injected_total(),
            spans_dropped: self.spans_dropped(),
            e2e_p50_us: e2e.quantile(0.50),
            e2e_p95_us: e2e.quantile(0.95),
            e2e_p99_us: e2e.quantile(0.99),
            solve_p50_us: solve_cold.quantile(0.50),
            solve_p95_us: solve_cold.quantile(0.95),
            solve_p99_us: solve_cold.quantile(0.99),
            ..StatsSnapshot::with_counts(t.counts())
        }
    }

    /// The stats snapshot as a JSON document.
    pub fn stats_json(&self) -> String {
        // lint:allow(panic-path): StatsSnapshot is an owned struct of
        // numbers with derived Serialize; serialisation cannot fail.
        serde_json::to_string(&self.stats()).expect("stats serialise")
    }

    /// Graceful shutdown: stop accepting, drain the queue, join the
    /// workers (via the supervisor), compact the disk tier. Idempotent;
    /// safe to call from any thread holding the service (frontends call it
    /// through their `Arc`).
    pub fn shutdown(&self) {
        // The flag first: a worker panicking mid-drain must not be
        // respawned into a closing pool.
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Dropping the sender closes the channel; workers exit after
        // draining whatever was already queued.
        *lock_recover(&self.tx) = None;
        let supervisor = lock_recover(&self.supervisor).take();
        let draining = supervisor.is_some();
        if let Some(h) = supervisor {
            let _ = h.join();
        }
        // Compact once, on the call that actually drained the workers; a
        // failed compaction leaves the (correct, just sparser) append log.
        if draining {
            if let Some(disk) = &self.shared.disk {
                if let Err(e) = lock_recover(disk).compact() {
                    eprintln!("batsched-service: disk-cache compaction failed: {e}");
                }
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Runs one worker to completion. Returns `true` on a clean exit (queue
/// drained for shutdown) and `false` when a caught panic ends this worker
/// — the workspace may hold arbitrary intermediate state, so the thread
/// retires and the supervisor replaces it with a fresh one.
fn worker_loop(id: usize, rx: &Mutex<Receiver<Job>>, shared: &Shared) -> bool {
    // The reusable per-worker state the whole design exists for: solver
    // buffers survive across requests, so steady-state solving does not
    // allocate in the σ hot path.
    let mut ws = SolverWorkspace::new();
    let worker = Some(id as u32);
    loop {
        let job = {
            let guard = lock_recover(rx);
            guard.recv()
        };
        let Ok(job) = job else {
            return true; // channel closed: graceful shutdown
        };
        shared.in_queue.fetch_sub(1, Ordering::Relaxed);
        let mut picked_up = RequestTrace {
            worker,
            format: job.format,
            ..RequestTrace::default()
        };
        picked_up.add(Stage::Queue, job.submitted.elapsed().as_micros() as u64);
        // Shed jobs that expired while queued: the caller has already
        // answered `timeout`, so a solve here would be wasted work that
        // delays every request still inside its deadline.
        if let Some(budget) = shared.request_timeout {
            if job.submitted.elapsed() >= budget {
                shared.telemetry.observe(&picked_up, Observer::Worker);
                let _ = job.reply.send(Reply {
                    body: ErrorResponse::timeout(budget).to_json(),
                    disposition: Disposition::Timeout,
                    micros: job.submitted.elapsed().as_micros() as u64,
                    trace: picked_up,
                });
                continue;
            }
        }
        // The workspace's phase counters are cumulative across requests;
        // the delta around `answer` is what this request cost.
        let prof_before = ws.prof();
        match catch_unwind(AssertUnwindSafe(|| {
            answer(&job, shared, &mut ws, picked_up)
        })) {
            Ok(mut reply) => {
                reply.trace.prof = ws.prof().since(&prof_before);
                shared.telemetry.add_prof(&reply.trace.prof);
                shared.telemetry.observe(&reply.trace, Observer::Worker);
                if reply.disposition == (Disposition::Ok { cached: false }) {
                    let solve_us = reply.trace.us(Stage::Solve);
                    shared.telemetry.solve_cold.observe(solve_us);
                }
                let _ = job.reply.send(reply); // caller may have given up; fine
            }
            Err(payload) => {
                shared.telemetry.bump(Counter::WorkerPanics);
                shared.telemetry.bump(Counter::InternalErrors);
                let body = ErrorResponse::new(
                    "internal",
                    format!(
                        "solver worker panicked: {}",
                        panic_message(payload.as_ref())
                    ),
                )
                .to_json();
                // The in-flight trace died with the unwound stack; report
                // what the worker still knows. `injected` approximates
                // fault-plane involvement: an armed plane is by far the
                // most likely panic source in this codebase.
                let trace = RequestTrace {
                    injected: shared.faults.is_armed(),
                    ..picked_up
                };
                shared.telemetry.observe(&trace, Observer::Worker);
                let _ = job.reply.send(Reply {
                    body,
                    disposition: Disposition::Internal,
                    micros: job.submitted.elapsed().as_micros() as u64,
                    trace,
                });
                return false;
            }
        }
    }
}

/// Answers one job; `picked_up` is its trace so far (worker and queue
/// wait).
fn answer(job: &Job, shared: &Shared, ws: &mut SolverWorkspace, picked_up: RequestTrace) -> Reply {
    let (body, format, raw_key) = (job.body.as_slice(), job.format, job.raw_key);
    let tel = &shared.telemetry;
    let finish = |disposition: Disposition, body: String, trace: RequestTrace| Reply {
        micros: job.submitted.elapsed().as_micros() as u64,
        body,
        disposition,
        trace,
    };
    let us = |t: Instant| t.elapsed().as_micros() as u64;
    // A body that is its own key needs no alias to find its entry.
    let remember_spelling = |key: u64| {
        if key != raw_key {
            shared.cache.alias(raw_key, body, key);
        }
    };
    let mut trace = picked_up;
    // Injected solver latency models a slow solve (chaos tests drive the
    // deadline machinery with it); it sits inside `catch_unwind` like the
    // real work it stands in for. The sleep is deliberately attributed to
    // the solve stage — that is what it impersonates. Fault patterns match
    // on text, so a non-UTF-8 binary body simply matches nothing.
    let body_text_for_faults = || std::str::from_utf8(body).unwrap_or("");
    if shared.faults.is_armed() {
        if let Some(delay) = shared.faults.solver_latency(body_text_for_faults()) {
            std::thread::sleep(delay);
            trace.injected = true;
            trace.add(Stage::Solve, delay.as_micros() as u64);
        }
    }
    // Fast path: an exact byte-duplicate of a previously answered request
    // is replayed without parsing anything. A binary body that spells no
    // default is its own cache key, so the entry is probed by the body
    // hash; any other spelling goes through the alias index, which maps
    // the body hash to the canonical entry and verifies the stored
    // document byte-for-byte (a hash collision is a miss, not a lie).
    let t = Instant::now();
    let fast_hit = match format {
        WireFormat::Binary => shared.cache.get(raw_key),
        WireFormat::Json => None,
    }
    .or_else(|| shared.cache.get_by_alias(raw_key, body));
    trace.add(Stage::Cache, us(t));
    if let Some(cached) = fast_hit {
        tel.bump(Counter::CacheHits);
        return finish(Disposition::Ok { cached: true }, cached, trace);
    }
    // Admission: decode the request in its wire format, then key it. The
    // key is computed here once and carried through to the response; a
    // canonical binary body already has it.
    let t = Instant::now();
    let parsed = match format {
        WireFormat::Json => std::str::from_utf8(body)
            .map_err(|_| wire::WireError::Syntax {
                message: "body is not UTF-8".into(),
            })
            .and_then(wire::parse_request)
            .map(|req| (req, None)),
        WireFormat::Binary => wire_bin::decode_keyed(body, raw_key),
    };
    trace.add(Stage::Parse, us(t));
    let (req, body_key) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            tel.bump(Counter::ClientErrors);
            return finish(
                Disposition::ClientError,
                ErrorResponse::from_wire(&e).to_json(),
                trace,
            );
        }
    };
    let key = match body_key {
        // The fast path above already probed this key.
        Some(key) => key,
        None => {
            let t = Instant::now();
            let key = req.content_hash();
            trace.add(Stage::Hash, us(t));
            let t = Instant::now();
            let canonical_hit = shared.cache.get(key);
            trace.add(Stage::Cache, us(t));
            if let Some(cached) = canonical_hit {
                // Different spelling, same canonical question: remember
                // this spelling so its next occurrence takes the fast path.
                remember_spelling(key);
                tel.bump(Counter::CacheHits);
                return finish(Disposition::Ok { cached: true }, cached, trace);
            }
            key
        }
    };
    // One breaker decision covers this request's disk read and (on a cold
    // solve) its disk append: while the tier is degraded both are skipped,
    // and the periodic probe request exercises the full read+write path.
    let disk_allowed = shared.disk.is_some() && shared.breaker.allow();
    // Disk tier: a previous process (or an entry the memory tier evicted)
    // may have the answer on disk; promote it so the next probe is a
    // memory hit. An I/O error here feeds the breaker and falls through
    // to a cold solve — the disk never fails a solvable request.
    if let Some(disk) = shared.disk.as_ref().filter(|_| disk_allowed) {
        let t = Instant::now();
        let persisted = lock_recover(disk).get(key);
        trace.add(Stage::Disk, us(t));
        match persisted {
            Ok(Some(cached)) => {
                shared.breaker.record_ok(tel);
                shared.cache.insert(key, cached.clone());
                remember_spelling(key);
                tel.bump(Counter::DiskHits);
                trace.served_from_disk = true;
                return finish(Disposition::Ok { cached: true }, cached, trace);
            }
            // An index miss does no I/O, so it proves nothing about the
            // disk's health: neutral for the breaker.
            Ok(None) => {}
            Err(e) => {
                shared.breaker.record_err(tel);
                // The error may be organic or injected; with an armed
                // plane, flag the request as fault-involved.
                trace.injected |= shared.faults.is_armed();
                eprintln!("batsched-service: disk-cache read failed: {e}");
            }
        }
    }
    tel.bump(Counter::CacheMisses);
    if shared.faults.is_armed() && shared.faults.solver_panic(body_text_for_faults()) {
        // lint:allow(panic-path): fault injection by design — this panic is
        // the test stimulus for the catch_unwind isolation boundary below.
        panic!("injected solver panic");
    }
    let t = Instant::now();
    let solved = solve_keyed(&req, key, ws);
    trace.add(Stage::Solve, us(t));
    match solved {
        Ok(resp) => {
            let t = Instant::now();
            // lint:allow(panic-path): ScheduleResponse is owned plain data
            // with derived Serialize; serialisation cannot fail.
            let rendered = serde_json::to_string(&resp).expect("responses serialise");
            shared.cache.insert(key, rendered.clone());
            remember_spelling(key);
            trace.add(Stage::Serialize, us(t));
            if let Some(disk) = shared.disk.as_ref().filter(|_| disk_allowed) {
                // A failed append only costs warmth after the next restart;
                // the in-memory answer is already correct.
                let t = Instant::now();
                let appended = lock_recover(disk).put(key, &rendered);
                trace.add(Stage::Disk, us(t));
                match appended {
                    Ok(()) => shared.breaker.record_ok(tel),
                    Err(e) => {
                        shared.breaker.record_err(tel);
                        trace.injected |= shared.faults.is_armed();
                        eprintln!("batsched-service: disk-cache append failed: {e}");
                    }
                }
            }
            tel.bump(Counter::Solved);
            finish(Disposition::Ok { cached: false }, rendered, trace)
        }
        Err(err) => {
            let disposition = if err.error == "internal" {
                tel.bump(Counter::InternalErrors);
                Disposition::Internal
            } else {
                tel.bump(Counter::ClientErrors);
                Disposition::ClientError
            };
            finish(disposition, err.to_json(), trace)
        }
    }
}

/// Solves one validated request to a response — shared by the pool workers
/// and direct (in-process, synchronous) callers like tests.
///
/// # Errors
///
/// A typed [`ErrorResponse`] mirroring the scheduler's failure.
pub fn solve(
    req: &ScheduleRequest,
    ws: &mut SolverWorkspace,
) -> Result<ScheduleResponse, ErrorResponse> {
    solve_keyed(req, req.content_hash(), ws)
}

/// [`solve`] for a request whose content hash the caller already holds,
/// so the service keys each request once.
pub(crate) fn solve_keyed(
    req: &ScheduleRequest,
    key: u64,
    ws: &mut SolverWorkspace,
) -> Result<ScheduleResponse, ErrorResponse> {
    let config = wire::scheduler_config(req);
    let sol = schedule_in(&req.graph, Minutes::new(req.deadline), &config, ws)
        .map_err(|e| ErrorResponse::from_scheduler(&e))?;
    let spec = req
        .model
        .clone()
        .unwrap_or_else(wire::ModelSpec::default_rv);
    let model = spec.build().map_err(|e| ErrorResponse::from_wire(&e))?;
    let profile = sol.schedule.to_profile(&req.graph);
    let end = profile.end();
    let model_cost = model.apparent_charge(&profile, end);
    let (survives, lifetime) = match req.capacity {
        None => (None, None),
        Some(cap) => match model.lifetime(&profile, MilliAmpMinutes::new(cap)) {
            None => (Some(true), None),
            Some(t) => (Some(false), Some(t.value())),
        },
    };
    Ok(ScheduleResponse {
        v: WIRE_VERSION,
        key: wire::key_hex(key),
        model: spec.name().to_string(),
        order: sol.schedule.order().iter().map(|t| t.index()).collect(),
        assignment: sol
            .schedule
            .assignment()
            .iter()
            .map(|p| p.index())
            .collect(),
        sigma: sol.cost.value(),
        makespan: sol.makespan.value(),
        deadline: req.deadline,
        direct_charge: sol.schedule.direct_charge(&req.graph).value(),
        model_cost: model_cost.value(),
        survives,
        lifetime,
        iterations: sol.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ScheduleRequest;
    use batsched_taskgraph::paper::g2;

    fn body(deadline: f64) -> String {
        serde_json::to_string(&ScheduleRequest::new(g2(), deadline)).expect("serialises")
    }

    #[test]
    fn solve_produces_a_valid_schedule() {
        let req = wire::parse_request(&body(75.0)).unwrap();
        let resp = solve(&req, &mut SolverWorkspace::new()).unwrap();
        assert_eq!(resp.v, WIRE_VERSION);
        assert_eq!(resp.key, req.key());
        assert!(resp.makespan <= 75.0 + 1e-9);
        assert!(resp.sigma > 0.0);
        assert_eq!(resp.order.len(), 9);
        assert_eq!(resp.assignment.len(), 9);
        assert_eq!(resp.survives, None);
    }

    #[test]
    fn lifetime_report_under_each_model() {
        for (model, expect_survive) in [
            (Some(crate::wire::ModelSpec::Ideal), true),
            (
                Some(crate::wire::ModelSpec::Kibam {
                    c: 0.5,
                    k: 0.05,
                    alpha: 60_000.0,
                }),
                true,
            ),
            (None, true),
        ] {
            let mut req = wire::parse_request(&body(75.0)).unwrap();
            req.model = model;
            req.capacity = Some(60_000.0);
            let resp = solve(&req, &mut SolverWorkspace::new()).unwrap();
            assert_eq!(resp.survives, Some(expect_survive), "{}", resp.model);
        }
        // A tiny battery dies mid-schedule.
        let mut req = wire::parse_request(&body(75.0)).unwrap();
        req.capacity = Some(2_000.0);
        let resp = solve(&req, &mut SolverWorkspace::new()).unwrap();
        assert_eq!(resp.survives, Some(false));
        let t = resp.lifetime.expect("death instant reported");
        assert!(t > 0.0 && t < resp.makespan);
    }

    #[test]
    fn service_round_trip_and_stats() {
        let svc = Service::start(ServiceConfig::default());
        let cold = svc.call(body(75.0));
        assert_eq!(cold.disposition, Disposition::Ok { cached: false });
        let warm = svc.call(body(75.0));
        assert_eq!(warm.disposition, Disposition::Ok { cached: true });
        assert_eq!(cold.body, warm.body, "hit must be bit-identical");
        let bad = svc.call("{ nope".into());
        assert_eq!(bad.disposition, Disposition::ClientError);
        let infeasible = svc.call(body(10.0));
        assert_eq!(infeasible.disposition, Disposition::ClientError);
        assert!(infeasible.body.contains("infeasible"));

        let stats = svc.stats();
        assert_eq!(stats.received, 4);
        assert_eq!(stats.solved, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2); // the infeasible request also missed
        assert_eq!(stats.client_errors, 2);
        assert_eq!(stats.cache_len, 1);
        assert_eq!(stats.timeouts, 0);
        assert_eq!(stats.worker_panics, 0);
        assert_eq!(stats.worker_respawns, 0);
        assert!(!stats.disk_degraded);
        let rendered = svc.stats_json();
        assert!(rendered.contains("\"cache_hits\":1"), "{rendered}");
        assert!(rendered.contains("\"disk_degraded\":false"), "{rendered}");
        svc.shutdown();
        // Submissions after shutdown are refused, not hung.
        let refused = svc.call(body(75.0));
        assert_eq!(refused.disposition, Disposition::Overloaded);
    }

    #[test]
    fn disk_tier_serves_warm_after_restart() {
        let dir = std::env::temp_dir().join("batsched_service_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("warm_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = ServiceConfig {
            disk_path: Some(path.clone()),
            ..ServiceConfig::default()
        };

        let deadlines = [55.0, 65.0, 75.0, 95.0];
        let svc = Service::try_start(cfg.clone()).unwrap();
        let cold: Vec<String> = deadlines
            .iter()
            .map(|&d| {
                let reply = svc.call(body(d));
                assert_eq!(reply.disposition, Disposition::Ok { cached: false });
                reply.body
            })
            .collect();
        svc.shutdown(); // compacts the disk tier

        // A fresh process: memory cache empty, disk tier warm.
        let svc = Service::try_start(cfg).unwrap();
        for (&d, cold) in deadlines.iter().zip(&cold) {
            let warm = svc.call(body(d));
            assert_eq!(warm.disposition, Disposition::Ok { cached: true });
            assert_eq!(warm.body, *cold, "disk hit must be bit-identical");
        }
        let stats = svc.stats();
        assert!(stats.disk_enabled);
        assert_eq!(stats.disk_hits, deadlines.len() as u64);
        assert_eq!(stats.solved, 0, "nothing is re-solved after a restart");
        assert_eq!(stats.cache_hits, 0, "first probes came from disk");
        assert_eq!(stats.disk_entries, deadlines.len());
        // The promoted entry now answers from memory (alias fast path).
        let memory = svc.call(body(75.0));
        assert_eq!(memory.disposition, Disposition::Ok { cached: true });
        assert_eq!(svc.stats().cache_hits, 1);
        svc.shutdown();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shutdown_is_idempotent_and_runs_on_drop() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        svc.shutdown();
        svc.shutdown();
        drop(svc);
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let cases = [
            (
                ServiceConfig {
                    workers: 0,
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroWorkers,
            ),
            (
                ServiceConfig {
                    queue_capacity: 0,
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroQueueCapacity,
            ),
            (
                ServiceConfig {
                    cache_capacity: 0,
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroCacheCapacity,
            ),
            (
                ServiceConfig {
                    cache_shards: 0,
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroCacheShards,
            ),
            (
                ServiceConfig {
                    request_timeout: Some(Duration::ZERO),
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroRequestTimeout,
            ),
            (
                ServiceConfig {
                    fsync_policy: FsyncPolicy::EveryN(0),
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroFsyncInterval,
            ),
            (
                ServiceConfig {
                    disk_breaker_threshold: 0,
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroBreakerThreshold,
            ),
            (
                ServiceConfig {
                    disk_probe_interval: Duration::ZERO,
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroProbeInterval,
            ),
            (
                ServiceConfig {
                    log_rate_limit: 0,
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroLogRateLimit,
            ),
            (
                ServiceConfig {
                    idle_timeout: Duration::ZERO,
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroIdleTimeout,
            ),
            (
                ServiceConfig {
                    max_requests_per_conn: 0,
                    ..ServiceConfig::default()
                },
                ConfigError::ZeroMaxRequestsPerConn,
            ),
        ];
        for (cfg, expected) in cases {
            match Service::try_start(cfg) {
                Err(StartError::Config(e)) => assert_eq!(e, expected),
                Err(other) => panic!("expected Config({expected:?}), got {other:?}"),
                Ok(_) => panic!("expected Config({expected:?}), got a running service"),
            }
        }
    }
}
