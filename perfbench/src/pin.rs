//! Runs the benchmark on one CPU: the fastest at start-up.
//!
//! On a shared 2-vCPU host each vCPU moves between speed states up to
//! ~1.6× apart, independently of the other, and a state can last minutes.
//! A request crosses four threads (client, connection, worker, connection,
//! client); spread over both vCPUs, each hand-off may wait for the other
//! vCPU to wake, and the request's speed mixes two independent states. On
//! one CPU every hand-off stays on one run queue and every window of a run
//! sees one speed state, which the fast-window statistics in `run` pick
//! out. Which CPU is chosen by timing the same fixed loop on each, so that
//! a run does not sit out a long slow state on one vCPU while the other is
//! fast.

use batsched_service::wire::fnv1a64;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Pins this process — its threads now and every thread it starts later —
/// to the CPU, among those it may run on, that ran a fixed loop fastest,
/// with `taskset`. Call it before any thread starts. Returns a description
/// of the choice.
pub fn pin_to_fastest_cpu() -> Result<String, String> {
    let pid = std::process::id().to_string();
    let list = taskset(&["-cp", &pid])?;
    // "pid 42's current affinity list: 0-3,6"
    let cpus = parse_cpu_list(list.rsplit(':').next().unwrap_or_default())
        .ok_or_else(|| format!("unreadable affinity list {list:?}"))?;
    let mut timed = Vec::with_capacity(cpus.len());
    for cpu in &cpus {
        // Only the calling thread exists yet, and its id is the pid.
        taskset(&["-cp", &cpu.to_string(), &pid])?;
        timed.push((calibrate_ms(), *cpu));
    }
    let (_, best) = timed
        .iter()
        .copied()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .ok_or("no CPU to run on")?;
    taskset(&["-a", "-cp", &best.to_string(), &pid])?;
    let each: Vec<String> = timed
        .iter()
        .map(|(ms, cpu)| format!("CPU {cpu} {ms:.3} ms"))
        .collect();
    Ok(format!(
        "every thread pinned to CPU {best} (calibration loop: {})",
        each.join(", ")
    ))
}

/// Median time (ms) of hashing 1 MiB, over nine tries.
fn calibrate_ms() -> f64 {
    let buf: Vec<u8> = (0..1u32 << 20)
        .map(|i| i.wrapping_mul(2_654_435_761) as u8)
        .collect();
    let mut ms: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            black_box(fnv1a64(black_box(&buf)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// The CPUs of a `taskset` list such as `0-3,6`.
fn parse_cpu_list(list: &str) -> Option<Vec<u32>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi) = (
            lo.trim().parse::<u32>().ok()?,
            hi.trim().parse::<u32>().ok()?,
        );
        cpus.extend(lo..=hi);
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// Runs `taskset` with `args`, waits for it, and returns its output.
fn taskset(args: &[&str]) -> Result<String, String> {
    let out = Command::new("taskset")
        .args(args)
        .output()
        .map_err(|e| format!("taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "taskset {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}
