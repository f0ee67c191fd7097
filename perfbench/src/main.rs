//! `perfbench` — the batsched end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <cold_json|cold_bin|hot_dup|disk_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives one seeded workload closed-loop through the real HTTP/1.1
//! frontend (an in-process `HttpServer` on a loopback port, two service
//! workers), checks every response against a directly computed oracle,
//! and prints a human-readable report followed by one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced run with `--trace 1`. Exits 1 when any response was wrong.
//! See `perfbench/README.md` for the workloads and the metric map.

mod client;
mod gen;
mod pin;
mod run;
mod stats;
mod trace;

use batsched_service::{DiskTier, FaultPlane, FsyncPolicy, Service, ShardedCache, StatsSnapshot};
use gen::{Kind, Workload};
use run::{closed_loop, Phase, Server};
use stats::{median, Samples};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use trace::{mean_count, Replica, Tracer};

/// Share of a run's windows, the fastest by median latency, that the
/// gated latency and throughput are taken from: 5 of the ~90 windows of
/// a 45 s run. Over ten seeds a twentieth gave narrower spreads than a
/// tenth or a fifth, which let more slow-state windows in.
const FAST_SHARE: f64 = 0.05;

/// Untimed (but checked) seconds of the workload's own loop before timing
/// starts: the first seconds after start-up run slower.
const WARMUP_S: f64 = 2.0;

const USAGE: &str = "usage: perfbench --workload <cold_json|cold_bin|hot_dup|disk_mixed> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(out) => {
            println!("{}", out.json());
            if !out.correct {
                eprintln!("perfbench: responses failed the correctness check");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The final line: correctness, request counts, and named metrics.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A scratch directory under the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> Result<Scratch, String> {
        let dir =
            PathBuf::from(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if no other run uses it
        }
    }
}

/// Writes `records` to a fresh cache file at `path` (no fsync while
/// seeding; the file is compacted once at the end).
fn seed_disk(path: &Path, records: &[(u64, String)]) -> Result<(), String> {
    let mut tier = DiskTier::open_with(path, FsyncPolicy::Never, FaultPlane::disarmed())
        .map_err(|e| e.to_string())?;
    for (key, body) in records {
        tier.put(*key, body).map_err(|e| e.to_string())?;
    }
    tier.compact().map_err(|e| e.to_string())
}

fn bench(args: &Args) -> Result<Outcome, String> {
    let w = Workload::build(&args.workload, args.seed)?;
    describe(&w, args);
    // Single-connection workloads run on one CPU (see `pin`); `hot_dup`
    // keeps both, since its two connections are there to contend. No
    // thread has started yet, so every later one inherits the mask.
    if w.connections == 1 {
        match pin::pin_to_fastest_cpu() {
            Ok(choice) => println!("cpu           : {choice}"),
            Err(e) => println!("cpu           : not pinned ({e})"),
        }
    }
    let scratch = Scratch::new(w.name)?;

    // The cache file: disk_mixed's seeded working set, or for the other
    // workloads their own answers (used only by the traced run's disk
    // probes).
    let cache_file = scratch.file("cache.bsc");
    let records = match w.kind {
        Kind::DiskMixed => w.disk_records(),
        _ => w
            .instances
            .iter()
            .map(|i| {
                let key = i.variant(0).content_hash();
                (key, i.expected(key))
            })
            .collect(),
    };
    seed_disk(&cache_file, &records)?;
    let file_bytes = std::fs::metadata(&cache_file).map(|m| m.len()).unwrap_or(0);
    println!(
        "disk file     : {} records, {file_bytes} bytes",
        records.len()
    );
    let copies = ["shadow.bsc", "replica.bsc", "probe.bsc"].map(|n| scratch.file(n));
    for c in &copies {
        std::fs::copy(&cache_file, c).map_err(|e| e.to_string())?;
    }

    // Set-up, several times: the last server stays up for the run.
    let cfg = run::config(&w, Some(&cache_file));
    let reps = if w.kind == Kind::DiskMixed { 9 } else { 21 };
    let mut setups = Vec::with_capacity(reps);
    let mut server = None;
    for _ in 0..reps {
        if let Some(s) = server.take() {
            Server::stop(s);
        }
        let (s, secs) = Server::start(&cfg)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let setup_s = median(&setups);
    println!(
        "setup         : median {:.3} ms over {reps} starts (min {:.3}, max {:.3})",
        setup_s * 1e3,
        setups.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        setups.iter().copied().fold(0.0, f64::max) * 1e3
    );
    run::prime(server.addr, &w)?;
    let warm = closed_loop(server.addr, &w, args.seed, 0, WARMUP_S, 0, None);

    let outcome = if args.trace {
        traced(&w, args, &server, &cfg, &copies, &warm)
    } else {
        let phase = closed_loop(
            server.addr,
            &w,
            args.seed,
            warm.next_pass,
            args.seconds,
            w.min_requests,
            None,
        );
        Ok(end_to_end(&warm, &phase, setup_s))
    };
    Server::stop(server);
    outcome
}

fn describe(w: &Workload, args: &Args) {
    println!(
        "workload      : {} (seed {}, {} s, trace {}), {} connection(s), closed loop, {} body",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.connections,
        w.format.as_str()
    );
    println!(
        "instances     : {} distinct (one pass sends each once)",
        w.instances.len()
    );
    for (k, i) in w.instances.iter().enumerate() {
        let role = match w.kind {
            Kind::DiskMixed if k < w.reads => " [seeded read]",
            Kind::DiskMixed => " [cold write]",
            _ => "",
        };
        println!(
            "  {:<28} n={:<3} edges={:<4} json={:>6} B  bin={:>6} B  sigma={:.1}  iterations={}{role}",
            i.label,
            i.n(),
            i.edges(),
            i.json_bytes,
            i.bin_bytes,
            i.resp.sigma,
            i.resp.iterations
        );
    }
}

fn report_phase(label: &str, p: &Phase) -> Samples {
    let s = Samples::new(p.lat_us.clone());
    println!(
        "{label:<14}: {} requests ({} failed) in {} passes over {:.3} s",
        p.attempted, p.failed, p.passes, p.active_s
    );
    for e in &p.errors {
        println!("  error: {e}");
    }
    s
}

fn end_to_end(warm: &Phase, p: &Phase, setup_s: f64) -> Outcome {
    report_phase("warm-up", warm);
    let s = report_phase("timed phase", p);
    let throughput = (p.attempted - p.failed) as f64 / p.active_s;
    let attempted = warm.attempted + p.attempted;
    let failed = warm.failed + p.failed;
    let success = (attempted - failed) as f64 / attempted as f64;
    let sigma_mean = p.sigmas.iter().sum::<f64>() / p.sigmas.len().max(1) as f64;
    let fast = p.fast_windows(FAST_SHARE);
    let wp50 = Samples::new(fast.window_p50s.clone());
    let qs: Vec<String> = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .map(|&q| format!("{:.4}", wp50.quantile(q) * 1e-3))
        .collect();
    println!(
        "windows       : {} of {:.1} s busy time; median ms q0/10/25/50/75/90/100 {}",
        wp50.len(),
        run::WINDOW.as_secs_f64(),
        qs.join(" ")
    );
    let trail: Vec<String> = fast
        .window_p50s
        .iter()
        .map(|us| format!("{:.3}", us * 1e-3))
        .collect();
    println!("  in time order: {}", trail.join(" "));
    let trail: Vec<String> = fast.window_rps.iter().map(|r| format!("{r:.1}")).collect();
    println!("  req/s        : {}", trail.join(" "));
    println!(
        "fast windows  : the {} with the lowest median; p50 {}; {:.1} req/s",
        fast.chosen,
        fast.lat.describe(0.5, 1e-3, "ms"),
        fast.rps
    );
    println!("whole run     : {throughput:.1} req/s");
    for (name, q) in [("  p50", 0.5), ("  p90", 0.9), ("  p99", 0.99)] {
        println!("{name:<14}: {}", s.describe(q, 1e-3, "ms"));
    }
    println!("error_rate    : {} of {} attempted", p.failed, p.attempted);
    println!(
        "sigma_mean    : {sigma_mean} mA.min over {} schedules",
        p.sigmas.len()
    );
    finish(
        attempted,
        failed,
        vec![
            ("setup_s", setup_s, "s"),
            ("p50_ms", fast.lat.median() * 1e-3, "ms"),
            ("success_rate", success, "fraction"),
            ("sigma_mean", sigma_mean, "mA.min"),
        ],
    )
}

/// Fails the run (rather than printing a non-number) when a metric could
/// not be measured.
fn finish(
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
) -> Outcome {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        println!("some metrics could not be measured: {metrics:?}");
    }
    Outcome {
        correct: failed == 0 && attempted > 0 && finite,
        attempted: attempted.max(1),
        failed,
        metrics: metrics
            .into_iter()
            .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
            .collect(),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn traced(
    w: &Workload,
    args: &Args,
    server: &Server,
    cfg: &batsched_service::ServiceConfig,
    copies: &[PathBuf; 3],
    warm: &Phase,
) -> Result<Outcome, String> {
    let half = args.seconds / 2.0;
    let before: StatsSnapshot = server.svc.stats();
    let untraced = closed_loop(
        server.addr,
        w,
        args.seed,
        warm.next_pass,
        half,
        w.min_requests / 2,
        None,
    );
    let after = server.svc.stats();
    let received = after.received - before.received;
    let cache_hit_ratio = ratio(after.cache_hits - before.cache_hits, received);
    let disk_hit_ratio = ratio(after.disk_hits - before.disk_hits, received);

    // The shadow starts from the same cache state as the server: its own
    // copy of the cache file, primed with the same pool.
    let mut shadow_cfg = cfg.clone();
    if shadow_cfg.disk_path.is_some() {
        shadow_cfg.disk_path = Some(copies[0].clone());
    }
    let shadow = Arc::new(Service::try_start(shadow_cfg).map_err(|e| e.to_string())?);
    let cache = Arc::new(ShardedCache::new(cfg.cache_capacity, cfg.cache_shards));
    let mut replicas = Vec::new();
    for _ in 0..w.connections {
        let disk = match cfg.disk_path {
            Some(_) => Some(
                DiskTier::open_with(&copies[1], cfg.fsync_policy, FaultPlane::disarmed())
                    .map_err(|e| e.to_string())?,
            ),
            None => None,
        };
        replicas.push(Replica::new(Arc::clone(&cache), disk));
    }
    let tracer = Tracer::new(Arc::clone(&shadow), replicas);
    tracer.prime(w.priming());
    let traced = closed_loop(
        server.addr,
        w,
        args.seed,
        untraced.next_pass,
        half,
        w.min_requests / 5,
        Some(&tracer),
    );
    drop(tracer);
    shadow.shutdown();
    let probe = trace::probe(w, args.seed, &copies[2])?;

    report_phase("warm-up", warm);
    let un = report_phase("untraced phase", &untraced);
    let tr = report_phase("traced phase", &traced);
    let recs = &traced.traces;
    let col = |f: &dyn Fn(&trace::TraceRec) -> f64| median(&recs.iter().map(f).collect::<Vec<_>>());
    let http_over = col(&|r| r.rtt_us - r.call_us);
    let service_over = col(&|r| r.call_us - r.path.sum());
    let layer_sum = col(&|r| r.path.sum());
    let untraced_p50 = un.median();
    let traced_p50 = tr.median();
    let other = untraced_p50 - layer_sum;

    println!(
        "reconciliation (µs, p50 over {} traced requests):",
        recs.len()
    );
    for (k, (name, _)) in trace::PathTimes::default().columns().iter().enumerate() {
        println!("  {name:<26} {:>12.2}", col(&|r| r.path.columns()[k].1));
    }
    println!("  {:<26} {layer_sum:>12.2}", "layer sum");
    println!("  {:<26} {untraced_p50:>12.2}", "untraced p50 (HTTP)");
    println!("  {:<26} {other:>12.2}", "other (untraced − layers)");
    println!("  {:<26} {http_over:>12.2}", "  of which HTTP over call");
    println!(
        "  {:<26} {service_over:>12.2}",
        "  of which call over layers"
    );
    println!("  {:<26} {traced_p50:>12.2}", "traced p50 (HTTP)");
    println!(
        "  {:<26} {:>12.2}",
        "tracing overhead",
        traced_p50 - untraced_p50
    );
    println!("growth probes:");
    for line in &probe.exp_points {
        println!("  {line}");
    }
    println!(
        "  parse exponent vs bytes {:.3}; solve exponent vs n {:.3}",
        probe.parse_bytes_exp, probe.solve_n_exp
    );

    let attempted = warm.attempted + untraced.attempted + traced.attempted;
    let failed = warm.failed + untraced.failed + traced.failed;
    let p = &probe;
    Ok(finish(
        attempted,
        failed,
        vec![
            ("http.roundtrip_over_call_us", http_over, "us"),
            ("wire.parse_us", median(&p.parse_us), "us"),
            (
                "wire.parse_ns_per_byte",
                median(&p.parse_ns_per_byte),
                "ns/B",
            ),
            ("wire.parse_bytes_exp", p.parse_bytes_exp, "exponent"),
            ("wire.hash_us", median(&p.hash_us), "us"),
            ("wire.serialize_us", median(&p.serialize_us), "us"),
            ("wire.raw_hash_us", median(&p.raw_hash_us), "us"),
            ("cache.alias_hit_us", median(&p.alias_hit_us), "us"),
            ("cache.insert_us", median(&p.insert_us), "us"),
            ("cache.hit_ratio", cache_hit_ratio, "fraction"),
            ("wire_bin.decode_us", median(&p.decode_us), "us"),
            ("disk.open_ms", p.disk_open_ms, "ms"),
            ("disk.get_us", median(&p.disk_get_us), "us"),
            ("disk.put_us", median(&p.disk_put_us), "us"),
            ("disk.hit_ratio", disk_hit_ratio, "fraction"),
            ("service.call_over_layers_us", service_over, "us"),
            ("core.solve_us", median(&p.solve_us), "us"),
            (
                "core.initial_sequence_us",
                median(&p.initial_sequence_us),
                "us",
            ),
            (
                "core.evaluate_windows_us",
                median(&p.evaluate_windows_us),
                "us",
            ),
            (
                "core.weighted_sequence_us",
                median(&p.weighted_sequence_us),
                "us",
            ),
            ("core.solve_n_exp", p.solve_n_exp, "exponent"),
            ("core.iterations", mean_count(&p.iterations), "count"),
            ("core.windows", mean_count(&p.windows), "count"),
            (
                "core.rows_carried_frac",
                ratio(p.rows_carried, p.rows_total),
                "fraction",
            ),
            (
                "core.sigma_reused_frac",
                ratio(p.sigma_reused, p.sigma_positions),
                "fraction",
            ),
            ("battery.sigma_evals", mean_count(&p.sigma_evals), "count"),
            (
                "battery.apparent_charge_us",
                median(&p.apparent_charge_us),
                "us",
            ),
            ("trace.untraced_p50_us", untraced_p50, "us"),
            ("trace.traced_p50_us", traced_p50, "us"),
            ("trace.overhead_us", traced_p50 - untraced_p50, "us"),
            ("trace.layer_sum_us", layer_sum, "us"),
            ("trace.other_us", other, "us"),
        ],
    ))
}
