//! Service set-up and the closed-loop clients.

use crate::client::{self, Client};
use crate::gen::{Kind, Workload};
use crate::stats::{median, Samples};
use crate::trace::{TraceRec, Tracer};
use batsched_service::{FsyncPolicy, HttpServer, Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The service configuration a workload runs against: two workers, and
/// for `disk_mixed` a disk tier behind a memory cache far smaller than
/// the seeded working set. Two defaults change, each to keep a host
/// effect out of request latency: a connection is never closed by request
/// count (the reconnect would wait out the acceptor's poll sleep), and the
/// disk tier never fsyncs (a sync's cost is the host's storage).
pub fn config(w: &Workload, disk: Option<&Path>) -> ServiceConfig {
    let mut cfg = ServiceConfig {
        workers: 2,
        max_requests_per_conn: usize::MAX,
        ..ServiceConfig::default()
    };
    if w.kind == Kind::DiskMixed {
        cfg.cache_capacity = 32;
        cfg.disk_path = disk.map(Path::to_path_buf);
        cfg.fsync_policy = FsyncPolicy::Never;
    }
    cfg
}

/// How long after `HttpServer::bind` the first `/readyz` probe goes out
/// (inside the measured set-up time).
const FIRST_PROBE_DELAY: Duration = Duration::from_millis(5);

/// A running service behind its HTTP frontend on a loopback port.
pub struct Server {
    pub svc: Arc<Service>,
    http: HttpServer,
    pub addr: SocketAddr,
}

impl Server {
    /// `Service::try_start` + `HttpServer::bind`, then `/readyz` until it
    /// answers 200. Returns the server and the seconds that took.
    pub fn start(cfg: &ServiceConfig) -> Result<(Server, f64), String> {
        let t = Instant::now();
        let svc = Arc::new(Service::try_start(cfg.clone()).map_err(|e| e.to_string())?);
        let http = HttpServer::bind(Arc::clone(&svc), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = http.local_addr();
        // The acceptor polls a non-blocking listener with a 15 ms sleep.
        // A probe sent straight after `bind` sometimes reaches the
        // listener before the acceptor's first poll and is accepted at
        // once; later probes wait out the sleep. Probing after the first
        // poll has surely happened makes every start measure the same
        // thing instead of a thread-start race.
        std::thread::sleep(FIRST_PROBE_DELAY);
        while !client::ready(addr).map_err(|e| format!("readyz: {e}"))? {
            if t.elapsed() > Duration::from_secs(30) {
                return Err("service never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let setup = t.elapsed().as_secs_f64();
        Ok((Server { svc, http, addr }, setup))
    }

    /// Stops the frontend (joining its threads), then drains the service.
    pub fn stop(self) {
        drop(self.http);
        self.svc.shutdown();
    }
}

/// What one timed phase observed.
#[derive(Default)]
pub struct Phase {
    /// Client-side latency of every answered request (µs).
    pub lat_us: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// σ of the schedules that passed the oracle check.
    pub sigmas: Vec<f64>,
    /// Longest client-thread busy time (s): the phase's wall time.
    pub active_s: f64,
    pub passes: u64,
    /// First pass number not yet used.
    pub next_pass: u64,
    pub errors: Vec<String>,
    pub traces: Vec<TraceRec>,
    /// Per connection, its consecutive windows of [`WINDOW`] busy time.
    pub windows: Vec<Vec<Window>>,
}

/// Busy time (client-side, pass building excluded) after which a window
/// ends with the pass that reached it.
pub const WINDOW: Duration = Duration::from_millis(500);

/// The requests one connection completed in one window of whole passes.
#[derive(Default)]
pub struct Window {
    pub lat_us: Vec<f64>,
    pub ok: usize,
    pub busy_s: f64,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.lat_us.extend(other.lat_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.sigmas.extend(other.sigmas);
        self.active_s = self.active_s.max(other.active_s);
        self.passes += other.passes;
        self.next_pass = self.next_pass.max(other.next_pass);
        self.errors.extend(other.errors);
        self.traces.extend(other.traces);
        self.windows.extend(other.windows);
    }

    /// The phase seen through its fastest windows: window `k` of every
    /// connection taken together (for each `k` all connections reached),
    /// ranked by median latency, and the fastest `share` of them pooled.
    pub fn fast_windows(&self, share: f64) -> FastWindows {
        let k_max = self.windows.iter().map(Vec::len).min().unwrap_or(0);
        let mut series: Vec<(Vec<f64>, f64)> = (0..k_max)
            .map(|k| {
                let lat = self
                    .windows
                    .iter()
                    .flat_map(|c| c[k].lat_us.iter().copied())
                    .collect();
                let rps = self
                    .windows
                    .iter()
                    .map(|c| c[k].ok as f64 / c[k].busy_s)
                    .sum();
                (lat, rps)
            })
            .collect();
        let window_p50s: Vec<f64> = series.iter().map(|(lat, _)| median(lat)).collect();
        let mut order: Vec<usize> = (0..series.len()).collect();
        order.sort_by(|&a, &b| window_p50s[a].total_cmp(&window_p50s[b]));
        let chosen = ((series.len() as f64 * share).ceil() as usize).clamp(1, series.len().max(1));
        let mut lat = Vec::new();
        let mut rps = 0.0;
        for &k in order.iter().take(chosen) {
            lat.append(&mut series[k].0);
            rps += series[k].1;
        }
        FastWindows {
            lat: Samples::new(lat),
            rps: rps / chosen as f64,
            chosen,
            window_p50s,
            window_rps: series.iter().map(|(_, rps)| *rps).collect(),
        }
    }
}

/// A timed phase restricted to its fastest windows (see
/// [`Phase::fast_windows`]).
pub struct FastWindows {
    /// Latencies (µs) pooled over the chosen windows.
    pub lat: Samples,
    /// Mean throughput of the chosen windows (req/s).
    pub rps: f64,
    pub chosen: usize,
    /// Median latency (µs) of every window, in time order.
    pub window_p50s: Vec<f64>,
    /// Throughput (req/s) of every window, in time order.
    pub window_rps: Vec<f64>,
}

/// Drives `w` closed-loop over its connections, whole passes at a time,
/// until `seconds` of sending have passed and at least `min_requests`
/// were sent. Connection `c` sends passes `first_pass + c`,
/// `first_pass + c + connections`, …; building a pass is not timed. Every
/// response is checked byte-for-byte against the oracle. With a tracer,
/// each request is also replayed through the shadow service and the layer
/// replica.
pub fn closed_loop(
    addr: SocketAddr,
    w: &Workload,
    seed: u64,
    first_pass: u64,
    seconds: f64,
    min_requests: usize,
    tracer: Option<&Tracer>,
) -> Phase {
    let conns = w.connections as u64;
    let per_conn = min_requests.div_ceil(w.connections);
    let mut total = Phase::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let rng = StdRng::seed_from_u64(seed ^ 0x5EED_0000 ^ (first_pass << 8) ^ c);
                    connection_loop(
                        addr,
                        w,
                        rng,
                        first_pass + c,
                        conns,
                        seconds,
                        per_conn,
                        c,
                        tracer,
                    )
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread"));
        }
    });
    total
}

#[allow(clippy::too_many_arguments)]
fn connection_loop(
    addr: SocketAddr,
    w: &Workload,
    mut rng: StdRng,
    mut pass: u64,
    stride: u64,
    seconds: f64,
    min_requests: usize,
    conn: u64,
    tracer: Option<&Tracer>,
) -> Phase {
    let mut out = Phase::default();
    let mut client = Client::new(addr);
    let mut active = Duration::ZERO;
    let mut window = Window::default();
    let mut windows = Vec::new();
    loop {
        let requests = w.pass(pass, &mut rng);
        let t0 = Instant::now();
        for r in &requests {
            out.attempted += 1;
            if let Err(e) = client.ready() {
                out.failed += 1;
                out.errors.push(format!("connect: {e}"));
                continue;
            }
            let start = Instant::now();
            let resp = client.send(&r.wire);
            let us = start.elapsed().as_secs_f64() * 1e6;
            let ok = match resp {
                Ok(resp) => {
                    out.lat_us.push(us);
                    let ok = resp.status == 200 && resp.body == r.expected;
                    if !ok {
                        out.errors.push(format!(
                            "status {}: {}",
                            resp.status,
                            String::from_utf8_lossy(&resp.body[..resp.body.len().min(160)])
                        ));
                    }
                    ok
                }
                Err(e) => {
                    out.errors.push(format!("transport: {e}"));
                    false
                }
            };
            if ok {
                out.sigmas.push(r.sigma);
                window.ok += 1;
                window.lat_us.push(us);
            } else {
                out.failed += 1;
            }
            if let Some(tr) = tracer {
                let rec = tr.trace(conn as usize, r, us);
                if !rec.ok {
                    out.failed += 1;
                    out.errors
                        .push("traced replay disagrees with the oracle".into());
                }
                out.traces.push(rec);
            }
        }
        let busy = t0.elapsed();
        active += busy;
        // Windows end on pass boundaries, so each holds whole passes: the
        // same mix of requests, whichever window it is.
        window.busy_s += busy.as_secs_f64();
        if window.busy_s >= WINDOW.as_secs_f64() {
            windows.push(std::mem::take(&mut window));
        }
        out.passes += 1;
        pass += stride;
        if active.as_secs_f64() >= seconds && out.attempted >= min_requests {
            break;
        }
    }
    out.active_s = active.as_secs_f64();
    out.next_pass = pass;
    out.windows = vec![windows];
    out.errors.truncate(5);
    out
}

/// Sends each request once, untimed, and checks the answers (the
/// `hot_dup` pool is primed this way).
pub fn prime(addr: SocketAddr, w: &Workload) -> Result<(), String> {
    let mut c = Client::new(addr);
    for r in w.priming() {
        let resp = c.send(&r.wire).map_err(|e| format!("priming: {e}"))?;
        if resp.status != 200 || resp.body != r.expected {
            return Err("priming answer disagrees with the oracle".into());
        }
    }
    Ok(())
}
