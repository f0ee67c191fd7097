//! # batsched-cli
//!
//! Command-line front end: schedule task-graph JSON files, compare
//! algorithms, generate synthetic workloads, export DOT, and simulate
//! execution against a battery. The argument parser is hand-rolled (no
//! dependency) and fully unit-tested; `main.rs` is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use batsched_baselines::{
    ChowdhuryScaling, KhanVemuri, RakhmatovDp, RandomSearch, Scheduler, SimulatedAnnealing,
};
use batsched_battery::rv::RvModel;
use batsched_battery::units::{MilliAmpMinutes, Minutes};
use batsched_core::SchedulerConfig;
use batsched_sim::Simulator;
use batsched_taskgraph::synth::{self, TaskParams};
use batsched_taskgraph::{io as gio, TaskGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Duration;

/// CLI failure: a message and a suggestion to try `--help`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "batsched — battery-aware task scheduling (Khan & Vemuri, DATE 2005)

USAGE:
  batsched schedule <graph.json> --deadline <min> [--algo <name>] [--beta <f>] [--json]
  batsched trace    <graph.json> --deadline <min> [--beta <f>]
  batsched compare  <graph.json> --deadline <min> [--beta <f>]
  batsched simulate <graph.json> --deadline <min> --capacity <mA·min> [--soc-csv]
  batsched gen --family <chain|fork-join|layered|series-parallel|random>
               [--tasks <n>] [--points <m>] [--seed <s>]
  batsched demo <g2|g3>
  batsched dot  <graph.json>
  batsched serve (--http <addr> | --jsonl)
               [--workers <n>] [--queue <n>] [--cache <n>]
               [--shards <n>] [--disk-cache <path>]
               [--request-timeout <ms>] [--fsync <never|always|N>]
               [--disk-breaker <n>] [--disk-probe-ms <ms>]
               [--idle-timeout-ms <ms>] [--max-requests-per-conn <n>]
               [--worker-id <k>]
               [--log-json <path|stderr>] [--log-level <error|warn|info|debug>]
               [--log-rate-limit <n>]
               [--fault <site:k=v,...>]...
  batsched fleet --http <addr> [--size <n>] [--retry-budget <n>]
               [--upstream-timeout-ms <ms>] [--probe-interval-ms <ms>]
               [--restart-backoff-ms <ms>] [--restart-backoff-max-ms <ms>]
               [--breaker <n>] [--drain-timeout-ms <ms>]
               [--start-timeout-ms <ms>] [--disk-cache <path>]
               [<serve options, passed through to every worker>]

ALGORITHMS (--algo): khan-vemuri (default), rakhmatov-dp, chowdhury,
                     annealing, random

Graphs are JSON as produced by `gen`/`demo`. Deadlines are minutes; the
battery cost is the Rakhmatov–Vrudhula apparent charge σ in mA·min.

`serve` runs the batch-scheduling daemon (see docs/SERVICE.md): --jsonl
answers one request document per stdin line on stdout; --http exposes
POST /v1/schedule (keep-alive connections), GET /v1/stats, GET /healthz
and POST /v1/shutdown on the given address (port 0 picks a free port; the
bound address is printed to stderr). --cache sizes the in-memory result
cache (entries, split over --shards independently locked shards);
--disk-cache persists results to an append-only record file so a restarted
daemon answers previously-seen requests warm; --fsync picks its durability
policy (never, always, or sync every N appends — default every 8).
--request-timeout bounds each request's submit-to-reply time; expired
requests answer a typed `timeout` error (HTTP 504) instead of hanging.
--disk-breaker trips the disk tier into degraded mode (memory + cold
solves) after N consecutive I/O errors; --disk-probe-ms sets how often a
probe append retries the sick tier until it heals and re-arms.
--log-json emits one structured JSON span per completed request (stage
timings, outcome, trace id, solver phase counters) to the given file or to
stderr; --log-level filters by severity (default info) and
--log-rate-limit caps span lines per second (default 5000; overflow is
counted, not written). The HTTP frontend also serves GET /v1/metrics
(Prometheus text: counters, gauges, per-stage latency histograms) and
GET /readyz (503 while the breaker is tripped, workers are below target,
or shutdown has begun).
--idle-timeout-ms and --max-requests-per-conn bound keep-alive connections
(both must be nonzero; defaults 5000 ms / 1024 requests). --worker-id marks
the daemon as fleet worker K (stamped on spans and exported as the
batsched_fleet_worker_id gauge).
--fault (repeatable) arms the fault-injection plane for chaos drills, e.g.
--fault solver-panic:after=3,count=1 or --fault disk-append:count=10
(sites: disk-read, disk-append, disk-write, solver-panic, solver-latency,
conn-drop, conn-stall; params: after, count, every, ms, key).

`fleet` runs a front-tier router (see docs/FLEET.md) that spawns and
supervises --size `batsched serve` worker processes on loopback ports and
routes each request by folded content-hash bits to a consistent worker, so
every worker's cache stays hot on its slice. Crashed or wedged workers are
respawned with exponential backoff (--restart-backoff-ms, doubling to
--restart-backoff-max-ms, breaker trips after --breaker consecutive
failures); failed exchanges are retried on surviving workers up to
--retry-budget extra attempts before a typed `upstream_unavailable` 503.
With --disk-cache each worker persists to its own <path>.shard-K file.
The router serves POST /v1/schedule, GET /healthz, /readyz, /v1/fleet,
/v1/metrics, POST /v1/fleet/drain/<k> and POST /v1/shutdown. Unrecognised
serve options (--workers, --request-timeout, --fault, ...) are passed
through to every worker.";

/// Parsed option map: positional args + `--key value` pairs + `--flag`s.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Opts {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--key value` pairs.
    pub options: Vec<(String, String)>,
    /// Bare `--flag`s.
    pub flags: Vec<String>,
}

impl Opts {
    /// Looks up the value of `--key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value passed for a repeatable `--key`, in order.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.options
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// `true` when `--flag` was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Parses a required float option.
    ///
    /// # Errors
    ///
    /// [`CliError`] when missing or not a number.
    pub fn require_f64(&self, key: &str) -> Result<f64, CliError> {
        let raw = self
            .get(key)
            .ok_or_else(|| err(format!("missing required option --{key}")))?;
        raw.parse()
            .map_err(|_| err(format!("--{key} expects a number, got '{raw}'")))
    }
}

/// Splits raw arguments into positionals, options and flags.
///
/// # Errors
///
/// [`CliError`] when a `--key` that expects a value trails the list.
pub fn parse_args(args: &[String]) -> Result<Opts, CliError> {
    const VALUE_OPTS: [&str; 34] = [
        "deadline",
        "algo",
        "beta",
        "capacity",
        "family",
        "tasks",
        "points",
        "seed",
        "http",
        "workers",
        "queue",
        "cache",
        "shards",
        "disk-cache",
        "request-timeout",
        "fsync",
        "fault",
        "disk-breaker",
        "disk-probe-ms",
        "idle-timeout-ms",
        "max-requests-per-conn",
        "worker-id",
        "log-json",
        "log-level",
        "log-rate-limit",
        "size",
        "retry-budget",
        "upstream-timeout-ms",
        "probe-interval-ms",
        "restart-backoff-ms",
        "restart-backoff-max-ms",
        "breaker",
        "drain-timeout-ms",
        "start-timeout-ms",
    ];
    let mut opts = Opts::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if VALUE_OPTS.contains(&name) {
                let v = it
                    .next()
                    .ok_or_else(|| err(format!("option --{name} expects a value")))?;
                opts.options.push((name.to_string(), v.clone()));
            } else {
                opts.flags.push(name.to_string());
            }
        } else {
            opts.positional.push(a.clone());
        }
    }
    Ok(opts)
}

fn algo_by_name(name: &str, beta: f64) -> Result<Box<dyn Scheduler>, CliError> {
    let config = SchedulerConfig {
        beta,
        ..SchedulerConfig::paper()
    };
    Ok(match name {
        "khan-vemuri" | "ours" => Box::new(KhanVemuri { config }),
        "rakhmatov-dp" | "dp" => Box::new(RakhmatovDp::default()),
        "chowdhury" => Box::new(ChowdhuryScaling),
        "annealing" | "sa" => Box::new(SimulatedAnnealing::default()),
        "random" => Box::new(RandomSearch::default()),
        other => return Err(err(format!("unknown algorithm '{other}'"))),
    })
}

fn load_graph(path: &str) -> Result<TaskGraph, CliError> {
    let raw = std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    gio::from_json(&raw).map_err(|e| err(format!("{path}: {e}")))
}

/// Runs the CLI against `args` (without the program name), writing human
/// output to `out`. Returns `Err` for user errors (exit code 2 in `main`).
///
/// # Errors
///
/// [`CliError`] with a one-line message for any user-facing failure.
pub fn run(args: &[String], out: &mut String) -> Result<(), CliError> {
    let Some(cmd) = args.first().map(String::as_str) else {
        out.push_str(USAGE);
        out.push('\n');
        return Ok(());
    };
    let rest: Vec<String> = args[1..].to_vec();
    let opts = parse_args(&rest)?;
    match cmd {
        "help" | "--help" | "-h" => {
            out.push_str(USAGE);
            out.push('\n');
            Ok(())
        }
        "schedule" => cmd_schedule(&opts, out),
        "trace" => cmd_trace(&opts, out),
        "compare" => cmd_compare(&opts, out),
        "simulate" => cmd_simulate(&opts, out),
        "gen" => cmd_gen(&opts, out),
        "demo" => cmd_demo(&opts, out),
        "dot" => cmd_dot(&opts, out),
        "serve" => cmd_serve(&opts, out),
        "fleet" => cmd_fleet(&opts, out),
        other => Err(err(format!(
            "unknown command '{other}' (try `batsched help`)"
        ))),
    }
}

fn cmd_schedule(opts: &Opts, out: &mut String) -> Result<(), CliError> {
    let path = opts
        .positional
        .first()
        .ok_or_else(|| err("schedule needs a graph file"))?;
    let g = load_graph(path)?;
    let deadline = Minutes::new(opts.require_f64("deadline")?);
    let beta = opts.get("beta").map_or(Ok(0.273), |b| {
        b.parse::<f64>().map_err(|_| err("--beta expects a number"))
    })?;
    let algo = algo_by_name(opts.get("algo").unwrap_or("khan-vemuri"), beta)?;
    let s = algo
        .schedule(&g, deadline)
        .map_err(|e| err(e.to_string()))?;
    let model = RvModel::new(beta, 10).map_err(|e| err(e.to_string()))?;
    if opts.flag("json") {
        let _ = writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(&s).expect("schedules serialise")
        );
    } else {
        let _ = writeln!(out, "algorithm : {}", algo.name());
        let _ = writeln!(out, "schedule  : {}", s.display(&g));
        let _ = writeln!(
            out,
            "makespan  : {:.1} (deadline {:.1})",
            s.makespan(&g),
            deadline
        );
        let _ = writeln!(out, "battery σ : {:.0}", s.battery_cost(&g, &model));
        let _ = writeln!(out, "direct    : {:.0}", s.direct_charge(&g));
    }
    Ok(())
}

fn cmd_trace(opts: &Opts, out: &mut String) -> Result<(), CliError> {
    let path = opts
        .positional
        .first()
        .ok_or_else(|| err("trace needs a graph file"))?;
    let g = load_graph(path)?;
    let deadline = Minutes::new(opts.require_f64("deadline")?);
    let beta = opts.get("beta").map_or(Ok(0.273), |b| {
        b.parse::<f64>().map_err(|_| err("--beta expects a number"))
    })?;
    let config = SchedulerConfig {
        beta,
        ..SchedulerConfig::paper()
    };
    let sol = batsched_core::schedule(&g, deadline, &config).map_err(|e| err(e.to_string()))?;
    out.push_str(&batsched_core::report::summary(&g, &sol));
    out.push('\n');
    out.push_str(&batsched_core::report::sequences_table(&g, &sol));
    out.push('\n');
    out.push_str(&batsched_core::report::windows_table(&g, &sol));
    Ok(())
}

fn cmd_compare(opts: &Opts, out: &mut String) -> Result<(), CliError> {
    let path = opts
        .positional
        .first()
        .ok_or_else(|| err("compare needs a graph file"))?;
    let g = load_graph(path)?;
    let deadline = Minutes::new(opts.require_f64("deadline")?);
    let beta = opts.get("beta").map_or(Ok(0.273), |b| {
        b.parse::<f64>().map_err(|_| err("--beta expects a number"))
    })?;
    let model = RvModel::new(beta, 10).map_err(|e| err(e.to_string()))?;
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>10}",
        "algorithm", "sigma mA·min", "makespan"
    );
    for name in [
        "khan-vemuri",
        "rakhmatov-dp",
        "chowdhury",
        "annealing",
        "random",
    ] {
        let algo = algo_by_name(name, beta)?;
        match algo.schedule(&g, deadline) {
            Ok(s) => {
                let _ = writeln!(
                    out,
                    "{:<22} {:>12.0} {:>10.1}",
                    algo.name(),
                    s.battery_cost(&g, &model).value(),
                    s.makespan(&g).value()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{:<22} failed: {e}", algo.name());
            }
        }
    }
    Ok(())
}

fn cmd_simulate(opts: &Opts, out: &mut String) -> Result<(), CliError> {
    let path = opts
        .positional
        .first()
        .ok_or_else(|| err("simulate needs a graph file"))?;
    let g = load_graph(path)?;
    let deadline = Minutes::new(opts.require_f64("deadline")?);
    let capacity = MilliAmpMinutes::new(opts.require_f64("capacity")?);
    let plan = batsched_core::schedule(&g, deadline, &SchedulerConfig::paper())
        .map_err(|e| err(e.to_string()))?;
    let sim = Simulator::paper(capacity, Some(deadline));
    let report = sim.run(&g, &plan.schedule, &RvModel::date05());
    let _ = writeln!(out, "{report}");
    for e in &report.events {
        let _ = writeln!(out, "  {e:?}");
    }
    if opts.flag("soc-csv") {
        out.push_str(&report.soc_csv());
    }
    Ok(())
}

fn cmd_gen(opts: &Opts, out: &mut String) -> Result<(), CliError> {
    let family = opts
        .get("family")
        .ok_or_else(|| err("gen needs --family"))?;
    let n: usize = opts
        .get("tasks")
        .unwrap_or("12")
        .parse()
        .map_err(|_| err("--tasks expects an integer"))?;
    let m: usize = opts
        .get("points")
        .unwrap_or("5")
        .parse()
        .map_err(|_| err("--points expects an integer"))?;
    let seed: u64 = opts
        .get("seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| err("--seed expects an integer"))?;
    if m < 2 {
        return Err(err("--points must be at least 2"));
    }
    let factors: Vec<f64> = (0..m)
        .map(|j| 1.0 - 0.67 * j as f64 / (m - 1) as f64)
        .collect();
    let params = TaskParams {
        factors,
        ..TaskParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let g = match family {
        "chain" => synth::chain(n, &params, &mut rng),
        "fork-join" => synth::fork_join(&[n.saturating_sub(2).max(1)], &params, &mut rng),
        "layered" => synth::layered(n.div_ceil(4).max(2), 4, 0.35, &params, &mut rng),
        "series-parallel" => synth::series_parallel(3, &params, &mut rng),
        "random" => synth::random_dag(n, 0.3, &params, &mut rng),
        other => return Err(err(format!("unknown family '{other}'"))),
    }
    .map_err(|e| err(e.to_string()))?;
    out.push_str(&gio::to_json(&g));
    out.push('\n');
    Ok(())
}

fn cmd_demo(opts: &Opts, out: &mut String) -> Result<(), CliError> {
    let which = opts
        .positional
        .first()
        .ok_or_else(|| err("demo needs 'g2' or 'g3'"))?;
    let g = match which.as_str() {
        "g2" => batsched_taskgraph::paper::g2(),
        "g3" => batsched_taskgraph::paper::g3(),
        other => return Err(err(format!("unknown demo '{other}' (g2 or g3)"))),
    };
    out.push_str(&gio::to_json(&g));
    out.push('\n');
    Ok(())
}

/// Parses `--key` as a `T` (`None` when absent); `what` names the
/// expected value in the error.
fn parsed<T: std::str::FromStr>(opts: &Opts, key: &str, what: &str) -> Result<Option<T>, CliError> {
    let parse = |raw: &str| {
        raw.parse()
            .map_err(|_| err(format!("--{key} expects {what}, got '{raw}'")))
    };
    opts.get(key).map(parse).transpose()
}

/// Parses an integer option of at least `min`, `default` when absent.
fn bounded<T>(opts: &Opts, key: &str, what: &str, default: T, min: T) -> Result<T, CliError>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    match parsed(opts, key, what)? {
        None => Ok(default),
        Some(n) if n < min => Err(err(format!("--{key} must be at least {min}"))),
        Some(n) => Ok(n),
    }
}

/// Parses a sizing option (`--workers`, `--queue`, `--cache`, …).
fn sizing<T>(opts: &Opts, key: &str, default: T, min: T) -> Result<T, CliError>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    bounded(opts, key, "an integer", default, min)
}

/// Parses a duration option given in milliseconds.
fn millis(opts: &Opts, key: &str, default: Duration, min: u64) -> Result<Duration, CliError> {
    let default = default.as_millis() as u64;
    let ms = bounded(opts, key, MILLISECONDS, default, min)?;
    Ok(Duration::from_millis(ms))
}

const MILLISECONDS: &str = "an integer (milliseconds)";

/// Parses `--fsync never|always|N` into a [`batsched_service::FsyncPolicy`].
fn fsync_policy(opts: &Opts) -> Result<batsched_service::FsyncPolicy, CliError> {
    use batsched_service::FsyncPolicy;
    match opts.get("fsync") {
        None => Ok(FsyncPolicy::default()),
        Some("never") => Ok(FsyncPolicy::Never),
        Some("always") => Ok(FsyncPolicy::Always),
        Some(raw) => {
            let n: u32 = raw.parse().map_err(|_| {
                err(format!(
                    "--fsync expects never, always or an integer N (sync every N appends), got '{raw}'"
                ))
            })?;
            if n == 0 {
                return Err(err("--fsync must be at least 1 (or never/always)"));
            }
            Ok(FsyncPolicy::EveryN(n))
        }
    }
}

/// The service configuration `serve` runs with: each option absent from
/// the command line keeps its [`ServiceConfig::default`] value.
fn serve_config(opts: &Opts) -> Result<batsched_service::ServiceConfig, CliError> {
    use batsched_service::{Level, LogTarget, ServiceConfig};
    let d = ServiceConfig::default();
    Ok(ServiceConfig {
        workers: sizing(opts, "workers", d.workers, 1)?,
        queue_capacity: sizing(opts, "queue", d.queue_capacity, 1)?,
        cache_capacity: sizing(opts, "cache", d.cache_capacity, 1)?,
        cache_shards: sizing(opts, "shards", d.cache_shards, 1)?,
        disk_path: opts.get("disk-cache").map(std::path::PathBuf::from),
        request_timeout: parsed(opts, "request-timeout", MILLISECONDS)?.map(Duration::from_millis),
        fsync_policy: fsync_policy(opts)?,
        disk_breaker_threshold: sizing(opts, "disk-breaker", d.disk_breaker_threshold, 1)?,
        disk_probe_interval: millis(opts, "disk-probe-ms", d.disk_probe_interval, 1)?,
        log_json: opts.get("log-json").map(LogTarget::parse),
        log_level: match opts.get("log-level") {
            None => d.log_level,
            Some(raw) => Level::parse(raw).ok_or_else(|| {
                err(format!(
                    "--log-level expects error, warn, info or debug, got '{raw}'"
                ))
            })?,
        },
        log_rate_limit: sizing(opts, "log-rate-limit", d.log_rate_limit, 1)?,
        // Zero values parse here but are rejected by the service's typed
        // config validation, like --request-timeout 0.
        idle_timeout: millis(opts, "idle-timeout-ms", d.idle_timeout, 0)?,
        max_requests_per_conn: sizing(opts, "max-requests-per-conn", d.max_requests_per_conn, 0)?,
        fleet_worker: parsed(opts, "worker-id", "an integer")?,
    })
}

fn cmd_serve(opts: &Opts, out: &mut String) -> Result<(), CliError> {
    use batsched_service::{FaultPlane, FaultRule, HttpServer, Service, ServiceConfig, StartError};
    let cfg = serve_config(opts)?;
    let fault_specs = opts.get_all("fault");
    let faults = if fault_specs.is_empty() {
        FaultPlane::disarmed()
    } else {
        let rules = fault_specs
            .iter()
            .map(|spec| FaultRule::parse(spec).map_err(|e| err(format!("--fault {spec}: {e}"))))
            .collect::<Result<Vec<_>, _>>()?;
        // Loud on purpose: an armed daemon fails requests by design.
        eprintln!("fault plane ARMED with {} rule(s)", rules.len());
        FaultPlane::armed(rules)
    };
    let start = |cfg: ServiceConfig| {
        let disk = cfg.disk_path.clone();
        Service::try_start_with_faults(cfg, faults.clone()).map_err(|e| match e {
            StartError::Io(io) => err(format!(
                "cannot open disk cache {}: {io}",
                disk.as_deref()
                    .unwrap_or(std::path::Path::new("?"))
                    .display()
            )),
            config => err(config.to_string()),
        })
    };
    match (opts.get("http"), opts.flag("jsonl")) {
        (Some(addr), false) => {
            let svc = std::sync::Arc::new(start(cfg)?);
            let server = HttpServer::bind(svc.clone(), addr)
                .map_err(|e| err(format!("cannot bind {addr}: {e}")))?;
            // Announced on stderr immediately — `out` is only printed after
            // the daemon exits, and scripts need the resolved port up front.
            eprintln!("listening on http://{}", server.local_addr());
            let bound = server.local_addr();
            server.wait();
            svc.shutdown();
            let _ = writeln!(out, "served on http://{bound}; shutdown complete");
            let _ = writeln!(out, "{}", svc.stats_json());
            Ok(())
        }
        (None, true) => {
            let svc = start(cfg)?;
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            let summary = batsched_service::run_jsonl(&svc, stdin.lock(), &mut stdout)
                .map_err(|e| err(format!("jsonl session failed: {e}")))?;
            svc.shutdown();
            // stdout carries only the response stream; the summary goes to
            // stderr so pipe consumers never see a non-JSON trailer.
            eprintln!(
                "served {} requests ({} errors of which {} timeouts, {} cache hits)",
                summary.requests, summary.errors, summary.timeouts, summary.cache_hits
            );
            Ok(())
        }
        (Some(_), true) => Err(err("serve takes either --http <addr> or --jsonl, not both")),
        (None, false) => Err(err("serve needs --http <addr> or --jsonl")),
    }
}

/// The router configuration `fleet` runs with: each option absent from
/// the command line keeps its [`FleetConfig::default`] value. Zero sizes
/// and durations parse here and surface as typed fleet config errors from
/// `Fleet::start`, before anything is spawned.
fn fleet_config(opts: &Opts) -> Result<batsched_service::FleetConfig, CliError> {
    use batsched_service::FleetConfig;
    let d = FleetConfig::default();
    Ok(FleetConfig {
        size: sizing(opts, "size", d.size, 0)?,
        retry_budget: sizing(opts, "retry-budget", d.retry_budget, 0)?,
        upstream_timeout: millis(opts, "upstream-timeout-ms", d.upstream_timeout, 0)?,
        probe_interval: millis(opts, "probe-interval-ms", d.probe_interval, 0)?,
        backoff_base: millis(opts, "restart-backoff-ms", d.backoff_base, 0)?,
        backoff_max: millis(opts, "restart-backoff-max-ms", d.backoff_max, 0)?,
        breaker_threshold: sizing(opts, "breaker", d.breaker_threshold, 0)?,
        drain_timeout: millis(opts, "drain-timeout-ms", d.drain_timeout, 0)?,
        start_timeout: millis(opts, "start-timeout-ms", d.start_timeout, 0)?,
    })
}

fn cmd_fleet(opts: &Opts, out: &mut String) -> Result<(), CliError> {
    use batsched_service::{Fleet, ProcessLauncher};
    let addr = opts
        .get("http")
        .ok_or_else(|| err("fleet needs --http <addr>"))?;
    let cfg = fleet_config(opts)?;
    let size = cfg.size;
    let program = std::env::current_exe()
        .map_err(|e| err(format!("cannot locate the batsched binary: {e}")))?;
    let mut launcher = ProcessLauncher::new(program);
    launcher.disk_base = opts.get("disk-cache").map(std::path::PathBuf::from);
    // Worker-level serve options pass through verbatim; each worker adds
    // its own --http 127.0.0.1:0, --worker-id and --disk-cache shard.
    const PASS_THROUGH: [&str; 13] = [
        "workers",
        "queue",
        "cache",
        "shards",
        "request-timeout",
        "fsync",
        "disk-breaker",
        "disk-probe-ms",
        "idle-timeout-ms",
        "max-requests-per-conn",
        "log-json",
        "log-level",
        "log-rate-limit",
    ];
    for key in PASS_THROUGH {
        if let Some(v) = opts.get(key) {
            launcher.args.push(format!("--{key}"));
            launcher.args.push(v.to_string());
        }
    }
    for spec in opts.get_all("fault") {
        launcher.args.push("--fault".to_string());
        launcher.args.push(spec.to_string());
    }
    let fleet = Fleet::start(cfg, Box::new(launcher), addr).map_err(|e| err(e.to_string()))?;
    let bound = fleet.local_addr();
    // Announced on stderr immediately, like `serve` — scripts grep for
    // the resolved port before sending traffic.
    eprintln!("fleet of {size} worker(s); listening on http://{bound}");
    fleet.wait();
    let _ = writeln!(out, "fleet served on http://{bound}; shutdown complete");
    Ok(())
}

fn cmd_dot(opts: &Opts, out: &mut String) -> Result<(), CliError> {
    let path = opts
        .positional
        .first()
        .ok_or_else(|| err("dot needs a graph file"))?;
    let g = load_graph(path)?;
    out.push_str(&gio::to_dot(&g));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_args_splits_kinds() {
        let o = parse_args(&sv(&["g.json", "--deadline", "75", "--json"])).unwrap();
        assert_eq!(o.positional, vec!["g.json"]);
        assert_eq!(o.get("deadline"), Some("75"));
        assert!(o.flag("json"));
        assert!(!o.flag("quiet"));
    }

    #[test]
    fn parse_args_rejects_trailing_value_option() {
        assert!(parse_args(&sv(&["--deadline"])).is_err());
    }

    #[test]
    fn no_args_prints_usage() {
        let mut out = String::new();
        run(&[], &mut out).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let mut out = String::new();
        let e = run(&sv(&["frobnicate"]), &mut out).unwrap_err();
        assert!(e.0.contains("unknown command"));
    }

    #[test]
    fn demo_and_schedule_round_trip() {
        let dir = std::env::temp_dir().join("batsched_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g2.json");
        let mut out = String::new();
        run(&sv(&["demo", "g2"]), &mut out).unwrap();
        std::fs::write(&path, &out).unwrap();

        let mut out = String::new();
        run(
            &sv(&["schedule", path.to_str().unwrap(), "--deadline", "75"]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("battery σ"), "{out}");
        assert!(out.contains("khan-vemuri"));

        let mut out = String::new();
        run(
            &sv(&["compare", path.to_str().unwrap(), "--deadline", "75"]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("rakhmatov-dp"));

        let mut out = String::new();
        run(
            &sv(&[
                "simulate",
                path.to_str().unwrap(),
                "--deadline",
                "75",
                "--capacity",
                "50000",
            ]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("success"), "{out}");
    }

    #[test]
    fn gen_produces_loadable_graphs() {
        for family in ["chain", "fork-join", "layered", "series-parallel", "random"] {
            let mut out = String::new();
            run(&sv(&["gen", "--family", family, "--tasks", "8"]), &mut out).unwrap();
            let g = gio::from_json(&out).unwrap_or_else(|e| panic!("{family}: {e}"));
            assert!(g.task_count() >= 1);
        }
    }

    #[test]
    fn trace_renders_tables() {
        let dir = std::env::temp_dir().join("batsched_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g3t.json");
        let mut out = String::new();
        run(&sv(&["demo", "g3"]), &mut out).unwrap();
        std::fs::write(&path, &out).unwrap();
        let mut out = String::new();
        run(
            &sv(&["trace", path.to_str().unwrap(), "--deadline", "230"]),
            &mut out,
        )
        .unwrap();
        assert!(out.contains("win 4:5"), "{out}");
        assert!(out.contains("S1w"));
    }

    #[test]
    fn dot_renders() {
        let dir = std::env::temp_dir().join("batsched_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g3.json");
        let mut out = String::new();
        run(&sv(&["demo", "g3"]), &mut out).unwrap();
        std::fs::write(&path, &out).unwrap();
        let mut out = String::new();
        run(&sv(&["dot", path.to_str().unwrap()]), &mut out).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn schedule_reports_infeasible_deadline() {
        let dir = std::env::temp_dir().join("batsched_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g2b.json");
        let mut out = String::new();
        run(&sv(&["demo", "g2"]), &mut out).unwrap();
        std::fs::write(&path, &out).unwrap();
        let mut out = String::new();
        let e = run(
            &sv(&["schedule", path.to_str().unwrap(), "--deadline", "10"]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("infeasible"), "{e}");
    }

    #[test]
    fn serve_argument_validation() {
        let mut out = String::new();
        let e = run(&sv(&["serve"]), &mut out).unwrap_err();
        assert!(e.0.contains("--http"), "{e}");
        let e = run(&sv(&["serve", "--http", "x", "--jsonl"]), &mut out).unwrap_err();
        assert!(e.0.contains("not both"), "{e}");
        let e = run(&sv(&["serve", "--jsonl", "--workers", "0"]), &mut out).unwrap_err();
        assert!(e.0.contains("at least 1"), "{e}");
        let e = run(&sv(&["serve", "--jsonl", "--queue", "soon"]), &mut out).unwrap_err();
        assert!(e.0.contains("integer"), "{e}");
        let e = run(&sv(&["serve", "--jsonl", "--shards", "0"]), &mut out).unwrap_err();
        assert!(e.0.contains("at least 1"), "{e}");
        let e = run(&sv(&["serve", "--http", "256.0.0.1:bad"]), &mut out).unwrap_err();
        assert!(e.0.contains("cannot bind"), "{e}");
        let e = run(
            &sv(&[
                "serve",
                "--jsonl",
                "--disk-cache",
                "/nonexistent-dir/batsched/cache.jsonl",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("cannot open disk cache"), "{e}");
        let e = run(&sv(&["serve", "--jsonl", "--cache", "0"]), &mut out).unwrap_err();
        assert!(e.0.contains("at least 1"), "{e}");
        let e = run(
            &sv(&["serve", "--jsonl", "--request-timeout", "soon"]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("milliseconds"), "{e}");
        // A zero timeout parses at the CLI but is rejected by the service's
        // typed config validation — the message must surface verbatim.
        let e = run(
            &sv(&["serve", "--jsonl", "--request-timeout", "0"]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("invalid service config"), "{e}");
        let e = run(&sv(&["serve", "--jsonl", "--fsync", "sometimes"]), &mut out).unwrap_err();
        assert!(e.0.contains("never, always"), "{e}");
        let e = run(&sv(&["serve", "--jsonl", "--fsync", "0"]), &mut out).unwrap_err();
        assert!(e.0.contains("at least 1"), "{e}");
        let e = run(
            &sv(&["serve", "--jsonl", "--log-level", "chatty"]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("error, warn, info or debug"), "{e}");
        let e = run(
            &sv(&["serve", "--jsonl", "--log-rate-limit", "0"]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("at least 1"), "{e}");
        let e = run(
            &sv(&[
                "serve",
                "--jsonl",
                "--log-json",
                "/nonexistent-dir/batsched/spans.jsonl",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("cannot open"), "{e}");
        let e = run(
            &sv(&["serve", "--jsonl", "--fault", "warp-core:breach=1"]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("--fault warp-core:breach=1"), "{e}");
        // Zero connection limits parse at the CLI but are rejected by the
        // service's typed config validation.
        let e = run(
            &sv(&["serve", "--jsonl", "--idle-timeout-ms", "0"]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("invalid service config"), "{e}");
        let e = run(
            &sv(&["serve", "--jsonl", "--max-requests-per-conn", "0"]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("invalid service config"), "{e}");
        let e = run(&sv(&["serve", "--jsonl", "--worker-id", "one"]), &mut out).unwrap_err();
        assert!(e.0.contains("--worker-id expects an integer"), "{e}");
    }

    #[test]
    fn absent_options_keep_the_config_defaults() {
        use batsched_service::{FleetConfig, ServiceConfig};
        let opts = parse_args(&sv(&["--jsonl"])).unwrap();
        assert_eq!(serve_config(&opts).unwrap(), ServiceConfig::default());
        let opts = parse_args(&sv(&["--http", "127.0.0.1:0"])).unwrap();
        assert_eq!(fleet_config(&opts).unwrap(), FleetConfig::default());
    }

    #[test]
    fn fleet_argument_validation() {
        let mut out = String::new();
        let e = run(&sv(&["fleet"]), &mut out).unwrap_err();
        assert!(e.0.contains("--http"), "{e}");
        // Typed fleet config errors surface before anything is spawned.
        let e = run(
            &sv(&["fleet", "--http", "127.0.0.1:0", "--size", "0"]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("fleet size must be >= 1"), "{e}");
        let e = run(
            &sv(&["fleet", "--http", "127.0.0.1:0", "--breaker", "0"]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("breaker_threshold must be >= 1"), "{e}");
        let e = run(
            &sv(&[
                "fleet",
                "--http",
                "127.0.0.1:0",
                "--probe-interval-ms",
                "soon",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert!(e.0.contains("milliseconds"), "{e}");
    }

    #[test]
    fn get_all_collects_repeated_options() {
        let o = parse_args(&sv(&[
            "--fault",
            "solver-panic:count=1",
            "--fault",
            "disk-append:count=3",
        ]))
        .unwrap();
        assert_eq!(
            o.get_all("fault"),
            vec!["solver-panic:count=1", "disk-append:count=3"]
        );
        assert!(o.get_all("fsync").is_empty());
    }

    #[test]
    fn fsync_option_parses_all_forms() {
        use batsched_service::FsyncPolicy;
        let policy = |args: &[&str]| fsync_policy(&parse_args(&sv(args)).unwrap());
        assert_eq!(policy(&[]).unwrap(), FsyncPolicy::default());
        assert_eq!(policy(&["--fsync", "never"]).unwrap(), FsyncPolicy::Never);
        assert_eq!(policy(&["--fsync", "always"]).unwrap(), FsyncPolicy::Always);
        assert_eq!(policy(&["--fsync", "16"]).unwrap(), FsyncPolicy::EveryN(16));
        assert!(policy(&["--fsync", "0"]).is_err());
    }

    #[test]
    fn every_algo_name_resolves() {
        for name in [
            "khan-vemuri",
            "ours",
            "rakhmatov-dp",
            "dp",
            "chowdhury",
            "annealing",
            "sa",
            "random",
        ] {
            assert!(algo_by_name(name, 0.273).is_ok(), "{name}");
        }
        assert!(algo_by_name("nope", 0.273).is_err());
    }
}
