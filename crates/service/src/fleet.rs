//! Fleet-scale serving: a front-tier router that owns the listening
//! socket, spawns and supervises N worker processes, and routes every
//! request by folded content-hash bits to a consistent worker slice.
//!
//! ## Topology
//!
//! One router process accepts all client connections. Each `POST
//! /v1/schedule` body is hashed (XXH64 over the raw wire bytes — the
//! same hash that keys the alias fast path) and folded onto a **home
//! slot** `(h ^ (h >> 32)) % N`, exactly the fold the sharded memory
//! cache uses. The same document therefore always lands on the same
//! worker, so every worker's memory cache stays hot on its slice of the
//! hash space. Workers are `batsched serve` children on loopback ports
//! (or in-process servers in tests/benches, via [`WorkerLauncher`]).
//!
//! ## Robustness
//!
//! * **Health/readiness probing** — a monitor thread polls each worker's
//!   `/readyz`; a freshly launched worker is only admitted to routing
//!   once it reports ready.
//! * **Circuit breaker + backoff restart** — consecutive probe failures
//!   or consecutive failed proxy exchanges (a wedged worker that accepts
//!   connections but never answers) trip the per-worker breaker: the
//!   child is killed and relaunched with exponential backoff. A child
//!   that dies outright (crash, `kill -9`) is detected the same sweep
//!   and respawned on the same backoff schedule.
//! * **Bounded retry-with-failover** — when an upstream connection dies
//!   mid-exchange the request is retried on the next live worker in the
//!   slot's deterministic failover chain. This is safe because requests
//!   are idempotent by content hash: any worker produces the
//!   bit-identical answer. The retry budget is capped
//!   ([`FleetConfig::retry_budget`]); when it is spent the client gets a
//!   typed `upstream_unavailable` 503, never a dropped connection.
//! * **Drain/restart** — `POST /v1/fleet/drain/<k>` stops routing new
//!   work to worker `k` (its slice fails over), waits for its in-flight
//!   requests to finish, shuts it down gracefully (compacting its disk
//!   shard), relaunches it and re-admits it on ready — without dropping
//!   the fleet.
//!
//! ## Disk tier
//!
//! Each worker owns `<path>.shard-K` exclusively (see [`shard_path`]):
//! no cross-process file locking is needed, and a restarted worker
//! reloads exactly its slice. Rebalancing is restart-only — the fleet
//! size is fixed at boot.

use crate::http::client::{self, Conn};
use crate::http::{
    self, write_response, write_response_bytes, LoopExit, Request, RequestError, Shutdown,
};
use crate::metrics::{self, Kind, Read, Series};
use crate::service::{lock_recover, Service, ServiceConfig};
use crate::wire::{self, ErrorResponse};
use crate::{FaultPlane, HttpServer};
use serde::Serialize;
use std::fmt;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and robustness knobs for a [`Fleet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Worker processes (must be ≥ 1). Fixed for the fleet's lifetime:
    /// routing is restart-only rebalanced.
    pub size: usize,
    /// Extra proxy attempts after the first failed one before the client
    /// gets a typed `upstream_unavailable` 503 (0 = no failover).
    pub retry_budget: usize,
    /// Per-attempt upstream budget: connect, send and read the full
    /// response within this long or the attempt fails (must be > 0).
    pub upstream_timeout: Duration,
    /// Monitor sweep cadence: dead-child checks and `/readyz` probes
    /// (must be > 0).
    pub probe_interval: Duration,
    /// First restart delay after a crash/wedge; doubles per consecutive
    /// failure up to [`FleetConfig::backoff_max`] (must be > 0).
    pub backoff_base: Duration,
    /// Ceiling for the exponential restart backoff.
    pub backoff_max: Duration,
    /// Consecutive probe failures — or consecutive failed proxy
    /// exchanges — that trip a worker's breaker and force a restart
    /// (must be ≥ 1).
    pub breaker_threshold: u32,
    /// How long a draining worker may take to finish its in-flight
    /// requests before it is restarted anyway.
    pub drain_timeout: Duration,
    /// How long a launched worker may stay not-ready before the slot is
    /// recycled (killed and relaunched with backoff).
    pub start_timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            size: 3,
            retry_budget: 2,
            upstream_timeout: Duration::from_secs(10),
            probe_interval: Duration::from_millis(150),
            backoff_base: Duration::from_millis(200),
            backoff_max: Duration::from_secs(5),
            breaker_threshold: 3,
            drain_timeout: Duration::from_secs(30),
            start_timeout: Duration::from_secs(30),
        }
    }
}

/// A [`FleetConfig`] that cannot produce a working fleet, rejected by
/// [`Fleet::start`] before anything is spawned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// `size == 0`: nothing would ever answer.
    ZeroSize,
    /// `upstream_timeout == 0`: every proxy attempt would fail instantly.
    ZeroUpstreamTimeout,
    /// `probe_interval == 0`: the monitor would busy-spin.
    ZeroProbeInterval,
    /// `backoff_base == 0`: a crash-looping child would be respawned in a
    /// tight loop.
    ZeroBackoff,
    /// `breaker_threshold == 0`: the breaker would trip before the first
    /// failure.
    ZeroBreakerThreshold,
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            FleetConfigError::ZeroSize => "fleet size must be >= 1",
            FleetConfigError::ZeroUpstreamTimeout => "upstream_timeout must be > 0",
            FleetConfigError::ZeroProbeInterval => "probe_interval must be > 0",
            FleetConfigError::ZeroBackoff => "backoff_base must be > 0",
            FleetConfigError::ZeroBreakerThreshold => "breaker_threshold must be >= 1",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for FleetConfigError {}

/// Why [`Fleet::start`] failed.
#[derive(Debug)]
pub enum FleetStartError {
    /// The configuration was rejected before anything was spawned.
    Config(FleetConfigError),
    /// Binding the front listener failed.
    Io(io::Error),
}

impl fmt::Display for FleetStartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetStartError::Config(e) => write!(f, "invalid fleet config: {e}"),
            FleetStartError::Io(e) => write!(f, "cannot start fleet router: {e}"),
        }
    }
}

impl std::error::Error for FleetStartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetStartError::Config(e) => Some(e),
            FleetStartError::Io(e) => Some(e),
        }
    }
}

fn validate(cfg: &FleetConfig) -> Result<(), FleetConfigError> {
    if cfg.size == 0 {
        return Err(FleetConfigError::ZeroSize);
    }
    if cfg.upstream_timeout == Duration::ZERO {
        return Err(FleetConfigError::ZeroUpstreamTimeout);
    }
    if cfg.probe_interval == Duration::ZERO {
        return Err(FleetConfigError::ZeroProbeInterval);
    }
    if cfg.backoff_base == Duration::ZERO {
        return Err(FleetConfigError::ZeroBackoff);
    }
    if cfg.breaker_threshold == 0 {
        return Err(FleetConfigError::ZeroBreakerThreshold);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// The home slot for a content hash in a fleet of `size` workers: the low
/// hash bits folded with the high half (the sharded cache's fold), modulo
/// the fleet size.
///
/// # Panics
///
/// When `size == 0` (validated away at fleet start).
pub fn home_slot(hash: u64, size: usize) -> usize {
    assert!(size > 0, "home_slot needs a non-empty fleet");
    ((hash ^ (hash >> 32)) as usize) % size
}

/// The worker a request routes to: the first live slot scanning the
/// deterministic failover chain `home, home+1, … (mod size)`. `None` when
/// no worker is live.
///
/// Invariants (proptested in `tests/fleet.rs`):
///
/// * **total** — every hash routes to exactly one live worker whenever
///   any worker is live;
/// * **stable** — the same hash and liveness always route identically;
/// * **minimal disruption** — marking one worker dead only remaps hashes
///   that routed to *it*; every other worker keeps its slice.
pub fn route(hash: u64, live: &[bool]) -> Option<usize> {
    let size = live.len();
    if size == 0 {
        return None;
    }
    let home = home_slot(hash, size);
    (0..size)
        .map(|i| (home + i) % size)
        .find(|&s| live.get(s).copied().unwrap_or(false))
}

/// The disk-tier file owned exclusively by worker `slot`:
/// `<base>.shard-<slot>`.
pub fn shard_path(base: &Path, slot: usize) -> PathBuf {
    PathBuf::from(format!("{}.shard-{slot}", base.display()))
}

// ---------------------------------------------------------------------------
// Worker launching
// ---------------------------------------------------------------------------

/// A live worker as the router sees it: an address to proxy to plus
/// liveness/termination hooks.
pub trait WorkerHandle: Send {
    /// The worker's HTTP address.
    fn addr(&self) -> SocketAddr;
    /// OS process id, when the worker is a real process.
    fn pid(&self) -> Option<u32>;
    /// `true` when the worker is gone (process exited, server stopped).
    fn poll_dead(&mut self) -> bool;
    /// Abrupt termination (SIGKILL for processes).
    fn kill(&mut self);
    /// Waits up to `timeout` for the worker to exit on its own; `true`
    /// when it did.
    fn wait_exit(&mut self, timeout: Duration) -> bool;
}

/// Launches workers for fleet slots. [`ProcessLauncher`] spawns real
/// `batsched serve` child processes; [`InProcessLauncher`] runs each
/// worker as an in-process [`HttpServer`] so tests and benches can drive
/// the router deterministically (including per-slot fault planes).
pub trait WorkerLauncher: Send + Sync + 'static {
    /// Launches slot `slot` (incarnation `attempt`, starting at 0) and
    /// returns its handle once the worker has an address.
    ///
    /// # Errors
    ///
    /// Spawn/bind failures; the monitor retries with backoff.
    fn launch(&self, slot: usize, attempt: u64) -> io::Result<Box<dyn WorkerHandle>>;
}

/// Spawns `<program> serve --http 127.0.0.1:0 --worker-id <slot>
/// [--disk-cache <base>.shard-<slot>] <args…>` and parses the announced
/// address off the child's stderr.
pub struct ProcessLauncher {
    /// The `batsched` binary (usually `std::env::current_exe()`).
    pub program: PathBuf,
    /// Extra `serve` arguments appended verbatim for every worker
    /// (`--workers`, `--request-timeout`, `--fault`, …).
    pub args: Vec<String>,
    /// Disk-tier base path; each worker gets its own `.shard-K` file.
    pub disk_base: Option<PathBuf>,
    /// How long to wait for the child to announce its address.
    pub launch_timeout: Duration,
}

impl ProcessLauncher {
    /// A launcher for `program` with no extra arguments and no disk tier.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        Self {
            program: program.into(),
            args: Vec::new(),
            disk_base: None,
            launch_timeout: Duration::from_secs(20),
        }
    }
}

/// Extracts the bound address from a `listening on http://ADDR` line.
fn parse_announced_addr(line: &str) -> Option<SocketAddr> {
    let start = line.find("http://")? + "http://".len();
    line.get(start..)?.trim().parse().ok()
}

impl WorkerLauncher for ProcessLauncher {
    fn launch(&self, slot: usize, _attempt: u64) -> io::Result<Box<dyn WorkerHandle>> {
        let mut cmd = Command::new(&self.program);
        cmd.arg("serve")
            .arg("--http")
            .arg("127.0.0.1:0")
            .arg("--worker-id")
            .arg(slot.to_string());
        if let Some(base) = &self.disk_base {
            cmd.arg("--disk-cache").arg(shard_path(base, slot));
        }
        cmd.args(&self.args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn()?;
        let stderr = child.stderr.take();
        // From here on an early return drops the handle, killing the child.
        let mut worker = ProcessWorker {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let stderr =
            stderr.ok_or_else(|| io::Error::other("spawned worker has no piped stderr"))?;
        // The daemon announces its address within its first few stderr
        // lines or exits; a child that does neither within the budget is
        // killed. Reading only blocks while the child is alive and silent,
        // which a healthy `batsched serve` never is.
        let deadline = Instant::now() + self.launch_timeout;
        let mut lines = BufReader::new(stderr).lines().map_while(Result::ok);
        worker.addr = lines
            .by_ref()
            .take_while(|_| Instant::now() < deadline)
            .find_map(|line| parse_announced_addr(&line))
            .ok_or_else(|| {
                io::Error::other(format!(
                    "worker {slot} exited (or stalled) before announcing an address"
                ))
            })?;
        // Keep draining the child's stderr forever: a full pipe would
        // block the worker. Lines are re-emitted tagged with the slot.
        std::thread::Builder::new()
            .name(format!("batsched-fleet-stderr-{slot}"))
            .spawn(move || {
                for line in lines {
                    eprintln!("[worker {slot}] {line}");
                }
            })?;
        Ok(Box::new(worker))
    }
}

struct ProcessWorker {
    child: Child,
    addr: SocketAddr,
}

impl WorkerHandle for ProcessWorker {
    fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn pid(&self) -> Option<u32> {
        Some(self.child.id())
    }

    fn poll_dead(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn wait_exit(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.poll_dead() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for ProcessWorker {
    fn drop(&mut self) {
        // Never leak a child process, whatever path dropped the handle.
        if !self.poll_dead() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Per-slot fault-plane factory for [`InProcessLauncher`]: receives
/// `(slot, attempt)` so a test can arm only one incarnation of one worker.
pub type SlotFaults = Arc<dyn Fn(usize, u64) -> FaultPlane + Send + Sync>;

/// Runs each worker as an in-process [`Service`] + [`HttpServer`] on a
/// loopback port — the full router/proxy path over real sockets, without
/// child processes. `kill` stops the server and service abruptly (no
/// drain announcement to the router), which is how tests simulate a
/// crashed worker.
pub struct InProcessLauncher {
    /// Configuration for every worker's service.
    pub config: ServiceConfig,
    /// Disk-tier base path; each worker gets its own `.shard-K` file.
    pub disk_base: Option<PathBuf>,
    /// Optional per-(slot, attempt) fault plane.
    pub faults: Option<SlotFaults>,
}

impl InProcessLauncher {
    /// A launcher where every worker runs `config` (memory-only, no
    /// faults).
    pub fn new(config: ServiceConfig) -> Self {
        Self {
            config,
            disk_base: None,
            faults: None,
        }
    }
}

impl WorkerLauncher for InProcessLauncher {
    fn launch(&self, slot: usize, attempt: u64) -> io::Result<Box<dyn WorkerHandle>> {
        let mut cfg = self.config.clone();
        cfg.fleet_worker = Some(slot as u32);
        if let Some(base) = &self.disk_base {
            cfg.disk_path = Some(shard_path(base, slot));
        }
        let plane = self
            .faults
            .as_ref()
            .map_or_else(FaultPlane::disarmed, |f| f(slot, attempt));
        let svc = Arc::new(
            Service::try_start_with_faults(cfg, plane)
                .map_err(|e| io::Error::other(e.to_string()))?,
        );
        let server = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0")?;
        let addr = server.local_addr();
        Ok(Box::new(InProcessWorker {
            svc: Some(svc),
            server: Some(server),
            addr,
            dead: false,
        }))
    }
}

struct InProcessWorker {
    svc: Option<Arc<Service>>,
    server: Option<HttpServer>,
    addr: SocketAddr,
    dead: bool,
}

impl InProcessWorker {
    fn stop(&mut self) {
        self.dead = true;
        drop(self.server.take());
        if let Some(svc) = self.svc.take() {
            svc.shutdown();
        }
    }
}

impl WorkerHandle for InProcessWorker {
    fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn pid(&self) -> Option<u32> {
        None
    }

    fn poll_dead(&mut self) -> bool {
        self.dead
    }

    fn kill(&mut self) {
        self.stop();
    }

    fn wait_exit(&mut self, _timeout: Duration) -> bool {
        // An in-process worker that received /v1/shutdown stopped its own
        // acceptor; finish the teardown here.
        self.stop();
        true
    }
}

impl Drop for InProcessWorker {
    fn drop(&mut self) {
        if !self.dead {
            self.stop();
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet state
// ---------------------------------------------------------------------------

/// A worker slot's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    /// Launched, waiting for `/readyz` to pass; not routed to.
    Starting,
    /// Admitted to routing.
    Ready,
    /// Draining: no new work; in-flight finishes, then restart.
    Draining,
    /// Dead or wedged; waiting out the restart backoff.
    Down,
}

impl WorkerState {
    fn name(self) -> &'static str {
        match self {
            WorkerState::Starting => "starting",
            WorkerState::Ready => "ready",
            WorkerState::Draining => "draining",
            WorkerState::Down => "down",
        }
    }
}

/// The mutable half of a slot, behind its own short-held lock.
struct Slot {
    state: WorkerState,
    handle: Option<Box<dyn WorkerHandle>>,
    addr: Option<SocketAddr>,
    /// When the current state was entered (start-timeout accounting).
    since: Instant,
    /// Next restart delay (escalates ×2 per consecutive failure).
    backoff: Duration,
    /// Earliest instant a Down slot may relaunch.
    backoff_until: Instant,
    /// Launches so far (incarnation counter fed to the launcher).
    attempts: u64,
    /// Consecutive failed `/readyz` probes (monitor-owned).
    probe_failures: u32,
}

/// One worker slot: state machine, connection pool and counters.
struct PerWorker {
    slot: Mutex<Slot>,
    /// Idle keep-alive connections to this worker, LIFO.
    pool: Mutex<Vec<UpstreamConn>>,
    /// Bumped on every kill/restart so stale pooled connections from a
    /// previous incarnation are discarded instead of reused.
    epoch: AtomicU64,
    /// Requests currently proxied to this worker (drain waits on 0).
    inflight: AtomicU64,
    /// Successful proxied exchanges.
    proxied: AtomicU64,
    /// Failed proxy exchanges (connect/send/read/timeout).
    upstream_errors: AtomicU64,
    /// Consecutive failed proxy exchanges; reset by a success. At
    /// `breaker_threshold` the monitor force-restarts the worker.
    proxy_failures: AtomicU32,
    /// Relaunches after the initial boot.
    restarts: AtomicU64,
    /// Drain cycles started.
    drains: AtomicU64,
}

/// A pooled upstream connection, tagged with the worker incarnation it
/// was opened to.
struct UpstreamConn {
    conn: Conn,
    epoch: u64,
}

struct FleetShared {
    cfg: FleetConfig,
    launcher: Box<dyn WorkerLauncher>,
    workers: Vec<PerWorker>,
    shutting_down: AtomicBool,
    /// Schedule requests accepted by the router.
    requests: AtomicU64,
    /// Failover retries performed (attempts beyond each request's first).
    retries: AtomicU64,
    /// Typed `upstream_unavailable` 503s returned.
    unavailable: AtomicU64,
    /// Monotonic sequence feeding generated trace ids.
    trace_seq: AtomicU64,
}

impl FleetShared {
    /// Liveness mask for routing: only `Ready` slots accept new work.
    fn live_mask(&self) -> Vec<bool> {
        self.workers
            .iter()
            .map(|w| lock_recover(&w.slot).state == WorkerState::Ready)
            .collect()
    }

    fn addr_of(&self, k: usize) -> Option<SocketAddr> {
        lock_recover(&self.workers.get(k)?.slot).addr
    }
}

/// A running fleet: router listener + supervised workers.
pub struct Fleet {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    acceptor: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
    shared: Arc<FleetShared>,
}

/// Point-in-time fleet topology and per-worker counters, served as JSON
/// by `GET /v1/fleet`.
#[derive(Debug, Clone, Serialize)]
pub struct FleetStatus {
    /// Worker slots (fixed at boot).
    pub size: usize,
    /// `true` when every worker is ready.
    pub ready: bool,
    /// Router-level counters.
    pub requests: u64,
    /// Failover retries performed.
    pub retries: u64,
    /// Typed `upstream_unavailable` responses returned.
    pub unavailable: u64,
    /// Per-worker detail, in slot order.
    pub workers: Vec<WorkerStatus>,
}

/// One worker's slice of [`FleetStatus`].
#[derive(Debug, Clone, Serialize)]
pub struct WorkerStatus {
    /// Slot index.
    pub id: usize,
    /// Lifecycle state: `starting`, `ready`, `draining` or `down`.
    pub state: String,
    /// Loopback address, when launched.
    pub addr: Option<String>,
    /// OS pid, when the worker is a real process.
    pub pid: Option<u32>,
    /// Requests currently proxied to this worker.
    pub inflight: u64,
    /// Successful proxied exchanges.
    pub proxied: u64,
    /// Failed proxy exchanges.
    pub upstream_errors: u64,
    /// Relaunches after the initial boot.
    pub restarts: u64,
    /// Drain cycles started.
    pub drains: u64,
}

impl Fleet {
    /// Validates `cfg`, binds the router listener on `addr` (port 0 for
    /// an OS-assigned one), launches every worker slot and starts the
    /// acceptor and monitor threads. Workers come up asynchronously —
    /// use [`Fleet::wait_ready`] to block until the fleet is routable.
    ///
    /// # Errors
    ///
    /// [`FleetStartError::Config`] for a rejected configuration,
    /// [`FleetStartError::Io`] for listener failures. Individual worker
    /// launch failures are *not* errors: the slot starts `Down` and the
    /// monitor retries with backoff.
    pub fn start(
        cfg: FleetConfig,
        launcher: Box<dyn WorkerLauncher>,
        addr: &str,
    ) -> Result<Fleet, FleetStartError> {
        validate(&cfg).map_err(FleetStartError::Config)?;
        let listener = TcpListener::bind(addr).map_err(FleetStartError::Io)?;
        let addr = listener.local_addr().map_err(FleetStartError::Io)?;

        let now = Instant::now();
        let workers = (0..cfg.size)
            .map(|_| PerWorker {
                slot: Mutex::new(Slot {
                    state: WorkerState::Down,
                    handle: None,
                    addr: None,
                    since: now,
                    backoff: cfg.backoff_base,
                    backoff_until: now,
                    attempts: 0,
                    probe_failures: 0,
                }),
                pool: Mutex::new(Vec::new()),
                epoch: AtomicU64::new(0),
                inflight: AtomicU64::new(0),
                proxied: AtomicU64::new(0),
                upstream_errors: AtomicU64::new(0),
                proxy_failures: AtomicU32::new(0),
                restarts: AtomicU64::new(0),
                drains: AtomicU64::new(0),
            })
            .collect();
        let shared = Arc::new(FleetShared {
            cfg,
            launcher,
            workers,
            shutting_down: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
        });

        // Initial boot: launch every slot before accepting traffic, so
        // the first requests find Starting workers, not empty slots.
        for k in 0..shared.cfg.size {
            launch_slot(&shared, k);
        }

        let shutdown = Arc::new(Shutdown::new(addr));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let flag = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("batsched-fleet-accept".into())
                .spawn(move || {
                    let shutdown = Arc::clone(&flag);
                    http::accept_loop(&listener, &flag, "batsched-fleet-conn", move |stream| {
                        let serve = |request, stream: &mut TcpStream, keep_alive, _, _| {
                            serve_fleet_one(request, stream, &shared, &shutdown, keep_alive)
                        };
                        let _ = http::serve_connection(
                            stream,
                            &shutdown,
                            http::IDLE_TIMEOUT,
                            http::MAX_REQUESTS_PER_CONNECTION,
                            serve,
                        );
                    });
                })
                .map_err(FleetStartError::Io)?
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            let flag = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("batsched-fleet-monitor".into())
                .spawn(move || monitor_loop(&shared, &flag))
                .map_err(FleetStartError::Io)?
        };
        Ok(Fleet {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            monitor: Some(monitor),
            shared,
        })
    }

    /// The router's bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until every worker is ready or `timeout` elapses; `true`
    /// when the fleet became fully ready.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.live_mask().iter().all(|&l| l) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Point-in-time topology and counters.
    pub fn status(&self) -> FleetStatus {
        status_of(&self.shared)
    }

    /// The router's metrics in Prometheus text exposition format
    /// (`batsched_fleet_*` series).
    pub fn metrics_text(&self) -> String {
        metrics_of(&self.shared)
    }

    /// Abruptly kills worker `k` (SIGKILL for process workers) — the
    /// failure drill behind the zero-loss acceptance gate. The monitor
    /// respawns it with backoff. `false` when `k` has no live worker.
    pub fn kill_worker(&self, k: usize) -> bool {
        let Some(w) = self.shared.workers.get(k) else {
            return false;
        };
        let mut slot = lock_recover(&w.slot);
        if slot.handle.is_none() {
            return false;
        }
        mark_down(&self.shared, k, &mut slot);
        true
    }

    /// Starts a drain/restart cycle on worker `k`: stop routing new work
    /// to it, let its in-flight requests finish, shut it down gracefully,
    /// relaunch, re-admit on ready.
    ///
    /// # Errors
    ///
    /// When `k` is out of range or the worker is not currently ready.
    pub fn drain_worker(&self, k: usize) -> Result<(), String> {
        drain_worker(&self.shared, k)
    }

    /// Total schedule requests accepted by the router so far.
    pub fn requests_total(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Blocks until the router is asked to stop (a client hit
    /// `POST /v1/shutdown`), then tears the fleet down gracefully.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.finish();
    }

    /// Stops the router and tears the fleet down gracefully: each worker
    /// gets `POST /v1/shutdown` (compacting its disk shard) and a bounded
    /// wait before being killed. Dropping the fleet does the same.
    pub fn shutdown(self) {
        drop(self);
    }

    fn finish(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shutdown.raise();
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        for w in &self.shared.workers {
            let mut slot = lock_recover(&w.slot);
            if let Some(addr) = slot.addr {
                post_shutdown(addr);
            }
            reap(&mut slot);
            drop(slot);
            lock_recover(&w.pool).clear();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown.raise();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if self.monitor.is_some() {
            self.finish();
        }
    }
}

fn status_of(shared: &Arc<FleetShared>) -> FleetStatus {
    let mut workers = Vec::with_capacity(shared.cfg.size);
    let mut ready = true;
    for (k, w) in shared.workers.iter().enumerate() {
        let mut slot = lock_recover(&w.slot);
        let state = slot.state;
        let pid = slot.handle.as_mut().and_then(|h| h.pid());
        let addr = slot.addr.map(|a| a.to_string());
        drop(slot);
        ready &= state == WorkerState::Ready;
        workers.push(WorkerStatus {
            id: k,
            state: state.name().to_string(),
            addr,
            pid,
            inflight: w.inflight.load(Ordering::Relaxed),
            proxied: w.proxied.load(Ordering::Relaxed),
            upstream_errors: w.upstream_errors.load(Ordering::Relaxed),
            restarts: w.restarts.load(Ordering::Relaxed),
            drains: w.drains.load(Ordering::Relaxed),
        });
    }
    FleetStatus {
        size: shared.cfg.size,
        ready: ready && !shared.shutting_down.load(Ordering::SeqCst),
        requests: shared.requests.load(Ordering::Relaxed),
        retries: shared.retries.load(Ordering::Relaxed),
        unavailable: shared.unavailable.load(Ordering::Relaxed),
        workers,
    }
}

/// The router's `/v1/metrics` table, read from a [`FleetStatus`].
const FLEET_SERIES: [Series<FleetStatus>; 10] = [
    Series::gauge("batsched_fleet_size", |f| f.size as u64),
    Series::gauge("batsched_fleet_ready", |f| u64::from(f.ready)),
    Series::counter("batsched_fleet_requests_total", |f| f.requests),
    Series::counter("batsched_fleet_retries_total", |f| f.retries),
    Series::counter("batsched_fleet_unavailable_total", |f| f.unavailable),
    per_worker(Kind::Gauge, "batsched_fleet_worker_up", |f| {
        each_worker(f, |w| u64::from(w.state == "ready"))
    }),
    per_worker(Kind::Gauge, "batsched_fleet_worker_inflight", |f| {
        each_worker(f, |w| w.inflight)
    }),
    per_worker(Kind::Counter, "batsched_fleet_worker_proxied_total", |f| {
        each_worker(f, |w| w.proxied)
    }),
    per_worker(
        Kind::Counter,
        "batsched_fleet_worker_upstream_errors_total",
        |f| each_worker(f, |w| w.upstream_errors),
    ),
    per_worker(Kind::Counter, "batsched_fleet_worker_restarts_total", |f| {
        each_worker(f, |w| w.restarts)
    }),
];

/// A series with one `worker="k"` sample per slot.
const fn per_worker(
    kind: Kind,
    name: &'static str,
    read: fn(&FleetStatus) -> Vec<(String, u64)>,
) -> Series<FleetStatus> {
    Series::labelled(kind, name, Some("worker"), Read::Labelled(read))
}

fn each_worker(f: &FleetStatus, get: fn(&WorkerStatus) -> u64) -> Vec<(String, u64)> {
    f.workers
        .iter()
        .map(|w| (w.id.to_string(), get(w)))
        .collect()
}

fn metrics_of(shared: &Arc<FleetShared>) -> String {
    metrics::render(&FLEET_SERIES, &status_of(shared))
}

// ---------------------------------------------------------------------------
// Worker lifecycle (monitor thread)
// ---------------------------------------------------------------------------

/// Transitions slot `k` to `Down` — killing its worker if it still runs —
/// and escalates its backoff.
fn mark_down(shared: &Arc<FleetShared>, k: usize, slot: &mut Slot) {
    let Some(w) = shared.workers.get(k) else {
        return;
    };
    fence(w);
    if let Some(mut handle) = slot.handle.take() {
        handle.kill();
    }
    slot.addr = None;
    slot.probe_failures = 0;
    slot.state = WorkerState::Down;
    slot.since = Instant::now();
    slot.backoff_until = Instant::now() + slot.backoff;
    slot.backoff = (slot.backoff * 2).min(shared.cfg.backoff_max);
}

/// Retires worker `w`'s previous incarnation: its pooled connections are
/// stale, and its run of failed exchanges no longer counts.
fn fence(w: &PerWorker) {
    w.epoch.fetch_add(1, Ordering::SeqCst);
    lock_recover(&w.pool).clear();
    w.proxy_failures.store(0, Ordering::Relaxed);
}

/// Waits (bounded) for a slot's worker to exit after `POST /v1/shutdown`,
/// kills it if it does not, and leaves the slot `Down`.
fn reap(slot: &mut Slot) {
    if let Some(handle) = slot.handle.as_mut() {
        if !handle.wait_exit(Duration::from_secs(5)) {
            handle.kill();
        }
    }
    slot.handle = None;
    slot.addr = None;
    slot.state = WorkerState::Down;
}

/// Launches slot `k` (synchronously) and moves it to `Starting`. On
/// launch failure the slot goes `Down` with escalated backoff.
fn launch_slot(shared: &Arc<FleetShared>, k: usize) {
    let Some(w) = shared.workers.get(k) else {
        return;
    };
    let attempt = {
        let mut slot = lock_recover(&w.slot);
        // Claim the slot for this launch; `Starting` with no handle means
        // "launch in progress" and is skipped by every other path.
        slot.state = WorkerState::Starting;
        slot.since = Instant::now();
        slot.handle = None;
        slot.addr = None;
        slot.attempts += 1;
        if slot.attempts > 1 {
            w.restarts.fetch_add(1, Ordering::Relaxed);
        }
        slot.attempts - 1
    };
    match shared.launcher.launch(k, attempt) {
        Ok(handle) => {
            let mut slot = lock_recover(&w.slot);
            slot.addr = Some(handle.addr());
            slot.handle = Some(handle);
        }
        Err(_) => mark_down(shared, k, &mut lock_recover(&w.slot)),
    }
}

/// One monitor pass over slot `k`: relaunch expired backoffs, promote
/// ready workers, demote dead or wedged ones.
fn step_slot(shared: &Arc<FleetShared>, k: usize) {
    let Some(w) = shared.workers.get(k) else {
        return;
    };
    let decision = {
        let mut guard = lock_recover(&w.slot);
        let slot = &mut *guard;
        match slot.state {
            WorkerState::Down => {
                if Instant::now() >= slot.backoff_until {
                    Some(StepAction::Relaunch)
                } else {
                    None
                }
            }
            WorkerState::Starting => match slot.handle.as_mut() {
                None => None, // launch in progress elsewhere
                Some(handle) => {
                    // Died while starting, or did not start in time.
                    if handle.poll_dead() || slot.since.elapsed() > shared.cfg.start_timeout {
                        mark_down(shared, k, slot);
                        None
                    } else {
                        slot.addr.map(StepAction::ProbeStarting)
                    }
                }
            },
            WorkerState::Ready => match slot.handle.as_mut() {
                None => None,
                Some(handle) => {
                    // Died, or wedged: accepting connections but failing
                    // every exchange. Restart with backoff.
                    let wedged =
                        w.proxy_failures.load(Ordering::Relaxed) >= shared.cfg.breaker_threshold;
                    if handle.poll_dead() || wedged {
                        mark_down(shared, k, slot);
                        None
                    } else {
                        slot.addr.map(StepAction::ProbeReady)
                    }
                }
            },
            WorkerState::Draining => None, // the drain thread owns it
        }
    };

    // Probes and launches run without the slot lock: a slow worker must
    // not block routing decisions that only need the slot's state.
    match decision {
        None => {}
        Some(StepAction::Relaunch) => launch_slot(shared, k),
        Some(StepAction::ProbeStarting(addr)) => {
            let ready = probe_ready(addr, probe_timeout(shared));
            let mut slot = lock_recover(&w.slot);
            if slot.state == WorkerState::Starting && slot.handle.is_some() && ready {
                slot.state = WorkerState::Ready;
                slot.since = Instant::now();
                slot.probe_failures = 0;
                slot.backoff = shared.cfg.backoff_base;
                w.proxy_failures.store(0, Ordering::Relaxed);
            }
        }
        Some(StepAction::ProbeReady(addr)) => {
            let ready = probe_ready(addr, probe_timeout(shared));
            let mut slot = lock_recover(&w.slot);
            if slot.state != WorkerState::Ready {
                return;
            }
            if ready {
                slot.probe_failures = 0;
            } else {
                slot.probe_failures += 1;
                if slot.probe_failures >= shared.cfg.breaker_threshold {
                    mark_down(shared, k, &mut slot);
                }
            }
        }
    }
}

enum StepAction {
    Relaunch,
    ProbeStarting(SocketAddr),
    ProbeReady(SocketAddr),
}

fn probe_timeout(shared: &Arc<FleetShared>) -> Duration {
    shared
        .cfg
        .upstream_timeout
        .min(Duration::from_millis(1_000))
}

fn monitor_loop(shared: &Arc<FleetShared>, shutdown: &Shutdown) {
    while !shutdown.is_raised() {
        for k in 0..shared.cfg.size {
            if shutdown.is_raised() {
                return;
            }
            step_slot(shared, k);
        }
        std::thread::sleep(shared.cfg.probe_interval);
    }
}

/// `GET /readyz` against a worker; `true` on a 200 within `timeout`.
fn probe_ready(addr: SocketAddr, timeout: Duration) -> bool {
    Conn::connect(addr, timeout)
        .and_then(|mut c| c.call("GET", "/readyz", &[], b"", false))
        .is_ok_and(|r| r.status == 200)
}

/// Best-effort `POST /v1/shutdown` to a worker (graceful stop: it drains
/// its queue and compacts its disk shard). Waits for the acknowledgement
/// (or EOF) so the worker has actually begun shutting down before the
/// caller starts waiting on its exit.
fn post_shutdown(addr: SocketAddr) {
    let _ = Conn::connect(addr, Duration::from_secs(2))
        .and_then(|mut c| c.call("POST", "/v1/shutdown", &[], b"", false));
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

fn drain_worker(shared: &Arc<FleetShared>, k: usize) -> Result<(), String> {
    let Some(w) = shared.workers.get(k) else {
        return Err(format!("no worker {k} in a fleet of {}", shared.cfg.size));
    };
    {
        let mut slot = lock_recover(&w.slot);
        if slot.state != WorkerState::Ready {
            return Err(format!(
                "worker {k} is {}, only a ready worker can drain",
                slot.state.name()
            ));
        }
        slot.state = WorkerState::Draining;
        slot.since = Instant::now();
    }
    w.drains.fetch_add(1, Ordering::Relaxed);
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("batsched-fleet-drain-{k}"))
        .spawn(move || run_drain(&shared, k))
        .map_err(|e| format!("cannot spawn drain thread: {e}"))?;
    Ok(())
}

fn run_drain(shared: &Arc<FleetShared>, k: usize) {
    let Some(w) = shared.workers.get(k) else {
        return;
    };
    // New work already fails over (state is Draining); wait for in-flight
    // to finish, bounded by the drain timeout.
    let deadline = Instant::now() + shared.cfg.drain_timeout;
    while w.inflight.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let addr = lock_recover(&w.slot).addr;
    if let Some(addr) = addr {
        post_shutdown(addr);
    }
    let mut slot = lock_recover(&w.slot);
    reap(&mut slot);
    slot.since = Instant::now();
    // An operator-intended restart is not a failure: relaunch immediately
    // with the base backoff, not an escalated one.
    slot.backoff = shared.cfg.backoff_base;
    slot.backoff_until = Instant::now();
    drop(slot);
    fence(w);
}

// ---------------------------------------------------------------------------
// Router: accept loop and request handling
// ---------------------------------------------------------------------------

fn serve_fleet_one(
    request: Result<Request, RequestError>,
    stream: &mut TcpStream,
    shared: &Arc<FleetShared>,
    shutdown: &Shutdown,
    keep_alive: bool,
) -> io::Result<LoopExit> {
    // Framing failures mirror the worker frontend exactly: typed error,
    // then a lingering close — the router never guesses where the next
    // request starts.
    let req = match request {
        Ok(req) => req,
        Err(e) => {
            http::reject(stream, e)?;
            return Ok(LoopExit::AnnouncedClose);
        }
    };

    let echo_header = http::echo_header(&req);
    let echo: Vec<&str> = echo_header.as_deref().into_iter().collect();

    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/schedule") => proxy_schedule(&req, stream, shared, keep_alive),
        ("GET", "/readyz") => {
            let status = status_of(shared);
            let readiness = if status.ready {
                Ok(())
            } else {
                let mut reasons: Vec<String> = status
                    .workers
                    .iter()
                    .filter(|w| w.state != "ready")
                    .map(|w| format!("worker_{}_{}", w.id, w.state))
                    .collect();
                if shared.shutting_down.load(Ordering::SeqCst) {
                    reasons.push("shutting_down".to_string());
                }
                Err(reasons)
            };
            http::write_readyz(stream, readiness, &echo, keep_alive)
        }
        ("GET", "/v1/fleet") => {
            // lint:allow(panic-path): FleetStatus is an owned in-memory struct
            // of strings/ints with derived Serialize; serialisation cannot fail.
            let body = serde_json::to_string(&status_of(shared)).expect("fleet status serialises");
            write_response(stream, 200, &body, &echo, keep_alive)?;
            Ok(LoopExit::Served)
        }
        ("GET", "/v1/metrics") => {
            http::write_metrics(stream, &metrics_of(shared), &echo, keep_alive)
        }
        ("POST", path) if path.starts_with("/v1/fleet/drain/") => {
            let spec = path.strip_prefix("/v1/fleet/drain/").unwrap_or_default();
            let (status, body) = match spec.parse::<usize>() {
                Ok(k) => match drain_worker(shared, k) {
                    Ok(()) => (200, format!("{{\"ok\":true,\"draining\":{k}}}")),
                    Err(msg) => (409, ErrorResponse::new("drain_rejected", msg).to_json()),
                },
                Err(_) => {
                    let msg = format!("'{spec}' is not a worker index");
                    (400, ErrorResponse::new("bad_request", msg).to_json())
                }
            };
            write_response(stream, status, &body, &echo, keep_alive)?;
            Ok(LoopExit::Served)
        }
        _ => http::serve_common(&req, stream, &echo, keep_alive, shutdown),
    }
}

// ---------------------------------------------------------------------------
// Proxying
// ---------------------------------------------------------------------------

fn proxy_schedule(
    req: &Request,
    stream: &mut TcpStream,
    shared: &Arc<FleetShared>,
    keep_alive: bool,
) -> io::Result<LoopExit> {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    // Routing key: XXH64 over the raw body bytes, folded onto a home
    // slot. Raw-byte hashing keeps routing allocation- and parse-free;
    // the canonical cross-format key stays a worker-side concern (each
    // wire spelling of a document consistently warms one slice). The same
    // hash prefixes a generated trace id.
    let hash = wire::xxh64(&req.body);
    let trace_id = req.request_id.clone().unwrap_or_else(|| {
        crate::trace::make_trace_id(hash, shared.trace_seq.fetch_add(1, Ordering::Relaxed))
    });

    let mut tried = vec![false; shared.cfg.size];
    let mut attempts = 0usize;
    let verdict = loop {
        // Re-snapshot liveness each attempt: a worker the monitor just
        // demoted must not be retried, and one it just admitted may be.
        let mut live = shared.live_mask();
        for (l, t) in live.iter_mut().zip(&tried) {
            *l &= !t;
        }
        let Some(k) = route(hash, &live) else {
            break None; // nobody (left) to ask
        };
        if attempts > shared.cfg.retry_budget {
            break None;
        }
        if attempts > 0 {
            shared.retries.fetch_add(1, Ordering::Relaxed);
        }
        attempts += 1;
        if let Some(t) = tried.get_mut(k) {
            *t = true;
        }
        match proxy_attempt(shared, k, req, &trace_id) {
            Ok(resp) => break Some((k, resp)),
            Err(_) => continue,
        }
    };

    match verdict {
        Some((k, resp)) => {
            let rid = format!(
                "X-Request-Id: {}",
                resp.header("x-request-id").unwrap_or(&trace_id)
            );
            let fw = format!("X-Fleet-Worker: {k}");
            let mut headers: Vec<&str> = vec![rid.as_str(), fw.as_str()];
            let xc = resp.header("x-cache").map(|v| format!("X-Cache: {v}"));
            if let Some(xc) = &xc {
                headers.push(xc.as_str());
            }
            write_response_bytes(
                stream,
                resp.status,
                resp.header("content-type").unwrap_or("application/json"),
                &resp.body,
                &headers,
                keep_alive,
            )?;
            Ok(LoopExit::Served)
        }
        None => {
            shared.unavailable.fetch_add(1, Ordering::Relaxed);
            let rid = format!("X-Request-Id: {trace_id}");
            write_response(
                stream,
                503,
                &ErrorResponse::new(
                    "upstream_unavailable",
                    format!(
                        "no worker answered after {attempts} attempt(s); the request is \
                         idempotent and may be retried"
                    ),
                )
                .to_json(),
                &[rid.as_str()],
                keep_alive,
            )?;
            Ok(LoopExit::Served)
        }
    }
}

/// One bounded attempt against worker `k`: checkout (pooled or fresh),
/// exchange, repool on success. A stale pooled connection gets one fresh
/// retry before the attempt counts as failed — an idle-closed keep-alive
/// is not evidence the worker is sick.
fn proxy_attempt(
    shared: &Arc<FleetShared>,
    k: usize,
    req: &Request,
    trace_id: &str,
) -> io::Result<client::Response> {
    let Some(w) = shared.workers.get(k) else {
        return Err(io::Error::other("worker index out of range"));
    };
    let addr = shared
        .addr_of(k)
        .ok_or_else(|| io::Error::other("worker has no address"))?;
    w.inflight.fetch_add(1, Ordering::SeqCst);
    let result = (|| {
        // Bind the checkout first: popping inside the `if let` scrutinee
        // would hold the pool guard across the exchange (and deadlock in
        // repool).
        let pooled = lock_recover(&w.pool).pop();
        if let Some(mut conn) = pooled {
            if let Ok(resp) = exchange(&mut conn.conn, req, trace_id) {
                repool(shared, k, conn, resp.keep_alive());
                return Ok(resp);
            }
        }
        let mut conn = UpstreamConn {
            epoch: w.epoch.load(Ordering::SeqCst),
            conn: Conn::connect(addr, shared.cfg.upstream_timeout)?,
        };
        let resp = exchange(&mut conn.conn, req, trace_id)?;
        repool(shared, k, conn, resp.keep_alive());
        Ok(resp)
    })();
    w.inflight.fetch_sub(1, Ordering::SeqCst);
    match &result {
        Ok(_) => {
            w.proxied.fetch_add(1, Ordering::Relaxed);
            w.proxy_failures.store(0, Ordering::Relaxed);
        }
        Err(_) => {
            w.upstream_errors.fetch_add(1, Ordering::Relaxed);
            w.proxy_failures.fetch_add(1, Ordering::Relaxed);
        }
    }
    result
}

/// Returns a healthy keep-alive connection to worker `k`'s pool — unless
/// the worker was restarted since checkout (stale epoch) or the pool is
/// already full.
fn repool(shared: &Arc<FleetShared>, k: usize, conn: UpstreamConn, keep_alive: bool) {
    const MAX_POOLED: usize = 8;
    if !keep_alive {
        return;
    }
    let Some(w) = shared.workers.get(k) else {
        return;
    };
    if w.epoch.load(Ordering::SeqCst) != conn.epoch {
        return;
    }
    let mut pool = lock_recover(&w.pool);
    if pool.len() < MAX_POOLED {
        pool.push(conn);
    }
}

/// Sends the proxied request and reads the complete framed response.
fn exchange(conn: &mut Conn, req: &Request, trace_id: &str) -> io::Result<client::Response> {
    let content_type = req
        .content_type
        .as_ref()
        .map(|ct| format!("Content-Type: {ct}"));
    let accept = req
        .accept_binary
        .then(|| format!("Accept: {}", crate::wire_bin::CONTENT_TYPE));
    let request_id = format!("X-Request-Id: {trace_id}");
    let headers: Vec<&str> = content_type
        .iter()
        .chain(&accept)
        .chain([&request_id])
        .map(String::as_str)
        .collect();
    conn.call("POST", "/v1/schedule", &headers, &req.body, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_slot_matches_the_cache_fold() {
        for size in [1usize, 2, 3, 5, 8] {
            for hash in [0u64, 1, 0xdead_beef, u64::MAX, 0x1234_5678_9abc_def0] {
                let s = home_slot(hash, size);
                assert!(s < size);
                assert_eq!(s, ((hash ^ (hash >> 32)) as usize) % size);
            }
        }
    }

    #[test]
    fn route_is_total_and_prefers_home() {
        let live = [true, true, true];
        for hash in 0..200u64 {
            let s = route(hash, &live).unwrap();
            assert_eq!(s, home_slot(hash, 3), "all-live routes straight home");
        }
        assert_eq!(route(7, &[]), None);
        assert_eq!(route(7, &[false, false]), None);
    }

    #[test]
    fn removing_a_worker_only_remaps_its_slice() {
        let all = [true, true, true, true];
        for hash in 0..500u64 {
            let before = route(hash, &all).unwrap();
            let mut without = all;
            without[1] = false;
            let after = route(hash, &without).unwrap();
            if before != 1 {
                assert_eq!(before, after, "survivors keep their slices");
            } else {
                assert_ne!(after, 1, "the dead worker's slice fails over");
            }
        }
    }

    #[test]
    fn shard_paths_are_per_worker() {
        let base = Path::new("/tmp/cache.bin");
        assert_eq!(shard_path(base, 0), PathBuf::from("/tmp/cache.bin.shard-0"));
        assert_eq!(shard_path(base, 7), PathBuf::from("/tmp/cache.bin.shard-7"));
    }

    #[test]
    fn announced_addr_parses() {
        assert_eq!(
            parse_announced_addr("listening on http://127.0.0.1:8080\n"),
            Some("127.0.0.1:8080".parse().unwrap())
        );
        assert_eq!(
            parse_announced_addr("fault plane ARMED with 2 rule(s)"),
            None
        );
        assert_eq!(parse_announced_addr("http://not-an-addr"), None);
    }

    #[test]
    fn invalid_fleet_configs_are_typed() {
        let cases = [
            (
                FleetConfig {
                    size: 0,
                    ..FleetConfig::default()
                },
                FleetConfigError::ZeroSize,
            ),
            (
                FleetConfig {
                    upstream_timeout: Duration::ZERO,
                    ..FleetConfig::default()
                },
                FleetConfigError::ZeroUpstreamTimeout,
            ),
            (
                FleetConfig {
                    probe_interval: Duration::ZERO,
                    ..FleetConfig::default()
                },
                FleetConfigError::ZeroProbeInterval,
            ),
            (
                FleetConfig {
                    backoff_base: Duration::ZERO,
                    ..FleetConfig::default()
                },
                FleetConfigError::ZeroBackoff,
            ),
            (
                FleetConfig {
                    breaker_threshold: 0,
                    ..FleetConfig::default()
                },
                FleetConfigError::ZeroBreakerThreshold,
            ),
        ];
        for (cfg, expected) in cases {
            assert_eq!(validate(&cfg), Err(expected));
        }
        assert_eq!(validate(&FleetConfig::default()), Ok(()));
    }
}
