//! The traced run: every layer's public entry point timed from outside,
//! on the workload's own inputs.
//!
//! Two instruments:
//!
//! * [`Tracer`] rides along the closed loop. After each HTTP round trip it
//!   sends the same body to a *shadow* service (same configuration and
//!   cache state, no HTTP) through `Service::call_bytes`, then replays it
//!   through a [`Replica`] that calls each layer the service's request
//!   path calls, in the same order, timing each. That splits one request
//!   into HTTP framing, the service's own overhead (queue, channel
//!   hand-off, copies) and the layers.
//! * [`probe`] calls each layer in isolation on every base instance of
//!   the workload — including layers the workload's path skips — and fits
//!   growth exponents over n ∈ {50, 100, 200}.

use crate::gen::{deadline_at, layered_graph, Planned, Workload};
use crate::stats::median;
use batsched_battery::units::Minutes;
use batsched_battery::BatteryModel;
use batsched_core::search::DiagSearch;
use batsched_core::sequence::{initial_sequence, weighted_sequence};
use batsched_core::{schedule_in, SolverWorkspace};
use batsched_service::wire::{fnv1a64, scheduler_config};
use batsched_service::{
    decode_request, encode_request, parse_request, solve, DiskTier, FaultPlane, FsyncPolicy,
    ModelSpec, ScheduleRequest, Service, ShardedCache, WireFormat,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Layer times (µs) of one request replayed along the service's path.
#[derive(Debug, Default, Clone, Copy)]
pub struct PathTimes {
    pub raw_hash: f64,
    pub alias: f64,
    pub admit: f64,
    pub hash: f64,
    pub cache_get: f64,
    pub disk_get: f64,
    pub solve: f64,
    pub serialize: f64,
    pub insert: f64,
    pub disk_put: f64,
}

impl PathTimes {
    /// Each layer's time with the name the report prints, in path order.
    pub fn columns(&self) -> [(&'static str, f64); 10] {
        [
            ("raw hash", self.raw_hash),
            ("alias probe", self.alias),
            ("admission", self.admit),
            ("content hash", self.hash),
            ("memory probe", self.cache_get),
            ("disk probe", self.disk_get),
            ("solve", self.solve),
            ("serialize", self.serialize),
            ("memory insert", self.insert),
            ("disk append", self.disk_put),
        ]
    }

    pub fn sum(&self) -> f64 {
        self.columns().iter().map(|(_, us)| us).sum()
    }
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *slot += t.elapsed().as_secs_f64() * 1e6;
    r
}

/// The service's request path rebuilt from the layers' public entry
/// points: raw-bytes alias probe, admission (JSON parse + canonical hash,
/// or fused binary decode), memory probe, disk probe, solve, serialise,
/// memory insert, disk append.
pub struct Replica {
    cache: Arc<ShardedCache>,
    disk: Option<DiskTier>,
    ws: SolverWorkspace,
}

impl Replica {
    pub fn new(cache: Arc<ShardedCache>, disk: Option<DiskTier>) -> Replica {
        Replica {
            cache,
            disk,
            ws: SolverWorkspace::new(),
        }
    }

    /// Answers `body` as the service would, timing each layer call.
    pub fn replay(&mut self, body: &[u8], format: WireFormat) -> (Option<String>, PathTimes) {
        let mut t = PathTimes::default();
        let answer = self.answer(body, format, &mut t);
        (answer, t)
    }

    fn answer(&mut self, body: &[u8], format: WireFormat, t: &mut PathTimes) -> Option<String> {
        let cache = &self.cache;
        let raw = timed(&mut t.raw_hash, || fnv1a64(body));
        if let Some(hit) = timed(&mut t.alias, || cache.get_by_alias(raw, body)) {
            return Some(hit);
        }
        let (req, key) = match format {
            WireFormat::Json => {
                let req = timed(&mut t.admit, || {
                    std::str::from_utf8(body)
                        .ok()
                        .and_then(|s| parse_request(s).ok())
                })?;
                let key = timed(&mut t.hash, || req.content_hash());
                (req, key)
            }
            WireFormat::Binary => timed(&mut t.admit, || decode_request(body).ok())?,
        };
        if let Some(hit) = timed(&mut t.cache_get, || cache.get(key)) {
            cache.alias(raw, body, key);
            return Some(hit);
        }
        if let Some(disk) = self.disk.as_mut() {
            if let Some(hit) = timed(&mut t.disk_get, || disk.get(key).ok().flatten()) {
                timed(&mut t.insert, || {
                    cache.insert(key, hit.clone());
                    cache.alias(raw, body, key);
                });
                return Some(hit);
            }
        }
        let resp = timed(&mut t.solve, || solve(&req, &mut self.ws).ok())?;
        let rendered = timed(&mut t.serialize, || serde_json::to_string(&resp).ok())?;
        timed(&mut t.insert, || {
            cache.insert(key, rendered.clone());
            cache.alias(raw, body, key);
        });
        if let Some(disk) = self.disk.as_mut() {
            timed(&mut t.disk_put, || disk.put(key, &rendered)).ok()?;
        }
        Some(rendered)
    }
}

/// One traced request.
pub struct TraceRec {
    /// HTTP round trip (µs).
    pub rtt_us: f64,
    /// `Service::call_bytes` on the shadow service (µs).
    pub call_us: f64,
    pub path: PathTimes,
    /// The shadow and the replica both returned the oracle's answer.
    pub ok: bool,
}

/// The shadow service plus one replica per client connection.
pub struct Tracer {
    shadow: Arc<Service>,
    replicas: Vec<Mutex<Replica>>,
}

impl Tracer {
    pub fn new(shadow: Arc<Service>, replicas: Vec<Replica>) -> Tracer {
        Tracer {
            shadow,
            replicas: replicas.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Warms the shadow and the replicas with `requests` (the `hot_dup`
    /// priming set), untimed.
    pub fn prime(&self, requests: &[Arc<Planned>]) {
        for r in requests {
            self.shadow.call_bytes(r.body().to_vec(), r.format);
            for rep in &self.replicas {
                rep.lock().expect("replica lock").replay(r.body(), r.format);
            }
        }
    }

    pub fn trace(&self, conn: usize, r: &Planned, rtt_us: f64) -> TraceRec {
        let body = r.body().to_vec();
        let t = Instant::now();
        let reply = self.shadow.call_bytes(body, r.format);
        let call_us = t.elapsed().as_secs_f64() * 1e6;
        let (answer, path) = self.replicas[conn]
            .lock()
            .expect("replica lock")
            .replay(r.body(), r.format);
        let ok = reply.body.as_bytes() == r.expected.as_slice()
            && answer.as_deref().map(str::as_bytes) == Some(r.expected.as_slice());
        TraceRec {
            rtt_us,
            call_us,
            path,
            ok,
        }
    }
}

/// Median wall time (µs) of `f`: one call, and for calls under 20 ms more
/// calls until 3 ms or 31 calls have been spent.
fn time_us<R>(mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut v = Vec::new();
    loop {
        let t = Instant::now();
        black_box(f());
        v.push(t.elapsed().as_secs_f64() * 1e6);
        if v[0] > 20_000.0
            || v.len() >= 31
            || (v.len() >= 3 && start.elapsed() > Duration::from_millis(3))
        {
            break;
        }
    }
    median(&v)
}

/// Per-instance layer timings and work counts, from [`probe`].
#[derive(Default)]
pub struct Probe {
    pub parse_us: Vec<f64>,
    pub parse_ns_per_byte: Vec<f64>,
    pub hash_us: Vec<f64>,
    pub serialize_us: Vec<f64>,
    pub raw_hash_us: Vec<f64>,
    pub alias_hit_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub solve_us: Vec<f64>,
    pub initial_sequence_us: Vec<f64>,
    pub evaluate_windows_us: Vec<f64>,
    pub weighted_sequence_us: Vec<f64>,
    pub apparent_charge_us: Vec<f64>,
    pub disk_open_ms: f64,
    pub disk_get_us: Vec<f64>,
    pub disk_put_us: Vec<f64>,
    pub iterations: Vec<u64>,
    pub windows: Vec<u64>,
    pub rows_carried: u64,
    pub rows_total: u64,
    pub sigma_reused: u64,
    pub sigma_positions: u64,
    pub sigma_evals: Vec<u64>,
    pub parse_bytes_exp: f64,
    pub solve_n_exp: f64,
    pub exp_points: Vec<String>,
}

/// Times every layer in isolation on each base instance of `w` (variant 0
/// in the workload's spelling; the other spelling for the admission layer
/// the workload does not use). `disk_file` is a cache file holding the
/// workload's records: `DiskTier::open` is timed on it, and gets/puts go
/// through it.
pub fn probe(w: &Workload, seed: u64, disk_file: &Path) -> Result<Probe, String> {
    let mut p = Probe::default();
    let cache = ShardedCache::new(256, 8);
    let mut ws = SolverWorkspace::new();
    let model = ModelSpec::default_rv().build().map_err(|e| e.to_string())?;
    let mut fresh_key = 0x9E37_79B9_7F4A_7C15u64;
    let mut next_key = || {
        fresh_key = fresh_key.wrapping_mul(0x0000_0100_0000_01b3) ^ 0xA5;
        fresh_key
    };

    let opens: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let tier = open_disk(disk_file);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tier.map(|_| ms)
        })
        .collect::<Result<_, _>>()?;
    p.disk_open_ms = median(&opens);
    let mut disk = open_disk(disk_file)?;

    for inst in &w.instances {
        let req = inst.variant(0);
        let key = req.content_hash();
        let json = serde_json::to_string(&req).map_err(|e| e.to_string())?;
        let bin = encode_request(&req);
        let body: &[u8] = match w.format {
            WireFormat::Json => json.as_bytes(),
            WireFormat::Binary => &bin,
        };
        let resp = solve(&req, &mut ws).map_err(|e| e.message)?;
        let rendered = serde_json::to_string(&resp).map_err(|e| e.to_string())?;

        let parse = time_us(|| parse_request(&json));
        p.parse_us.push(parse);
        p.parse_ns_per_byte.push(parse * 1e3 / json.len() as f64);
        p.hash_us.push(time_us(|| req.content_hash()));
        p.serialize_us
            .push(time_us(|| serde_json::to_string(&resp)));
        p.decode_us.push(time_us(|| decode_request(&bin)));
        let raw = fnv1a64(body);
        p.raw_hash_us.push(time_us(|| fnv1a64(body)));
        cache.insert(key, rendered.clone());
        cache.alias(raw, body, key);
        p.alias_hit_us
            .push(time_us(|| cache.get_by_alias(raw, body)));
        p.insert_us
            .push(time_us(|| cache.insert(next_key(), rendered.clone())));

        p.solve_us.push(time_us(|| solve(&req, &mut ws)));
        let cfg = scheduler_config(&req);
        let g = &req.graph;
        p.initial_sequence_us.push(time_us(|| {
            initial_sequence(g, cfg.initial_weight, cfg.metric)
        }));
        let seq = initial_sequence(g, cfg.initial_weight, cfg.metric);
        let mut diag =
            DiagSearch::new(g, &cfg, Minutes::new(req.deadline)).map_err(|e| e.to_string())?;
        let (windows, best) = diag.windows(&seq).map_err(|e| e.to_string())?;
        p.evaluate_windows_us.push(time_us(|| diag.windows(&seq)));
        let assignment = &windows[best].assignment;
        p.weighted_sequence_us
            .push(time_us(|| weighted_sequence(g, assignment)));

        // Work counts from a fresh workspace, so they depend on the
        // instance alone and repeat exactly run to run.
        let mut counted = SolverWorkspace::new();
        let sol = schedule_in(g, Minutes::new(req.deadline), &cfg, &mut counted)
            .map_err(|e| e.to_string())?;
        let prof = counted.prof();
        p.iterations.push(sol.iterations as u64);
        p.windows.push(prof.windows);
        p.rows_carried += prof.rows_carried;
        p.rows_total += prof.rows_carried + prof.rows_full;
        p.sigma_reused += prof.sigma_reused;
        p.sigma_positions += prof.sigma_reused + prof.sigma_fresh;
        p.sigma_evals.push(prof.sigma_evals);
        let profile = sol.schedule.to_profile(g);
        let end = profile.end();
        p.apparent_charge_us
            .push(time_us(|| model.apparent_charge(&profile, end)));

        p.disk_get_us.push(time_us(|| disk.get(key)));
        p.disk_put_us
            .push(time_us(|| disk.put(next_key(), &rendered)));
    }

    // Growth exponents on the n-scaling family, drawn from the seed.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE7F0_0000);
    let (mut parse_pts, mut solve_pts) = (Vec::new(), Vec::new());
    for n in [50, 100, 200] {
        let g = layered_graph(n, &mut rng);
        let d = deadline_at(&g, 0.7);
        let req = ScheduleRequest::new(g, d);
        let json = serde_json::to_string(&req).map_err(|e| e.to_string())?;
        let parse = median(
            &(0..3)
                .map(|_| time_us(|| parse_request(&json)))
                .collect::<Vec<_>>(),
        );
        solve(&req, &mut ws).map_err(|e| e.message)?;
        let solve_t = median(
            &(0..3)
                .map(|_| time_us(|| solve(&req, &mut ws)))
                .collect::<Vec<_>>(),
        );
        p.exp_points.push(format!(
            "n={n}: {} B parsed in {parse:.1} µs; solved in {solve_t:.1} µs",
            json.len()
        ));
        parse_pts.push((json.len() as f64, parse));
        solve_pts.push((n as f64, solve_t));
    }
    p.parse_bytes_exp = batsched_bench::fitted_exponent(&parse_pts);
    p.solve_n_exp = batsched_bench::fitted_exponent(&solve_pts);
    Ok(p)
}

/// Opens a cache file as the benchmark's service does: without fsync.
fn open_disk(path: &Path) -> Result<DiskTier, String> {
    DiskTier::open_with(path, FsyncPolicy::Never, FaultPlane::disarmed()).map_err(|e| e.to_string())
}

/// Mean of integer counts (exact for a given seed).
pub fn mean_count(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
}
