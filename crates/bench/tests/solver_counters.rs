//! The solver's phase counters are exact: after one `schedule_in` run,
//! `Prof::windows` equals the number of `WindowRecord`s in the run's trace,
//! and every window sweep scores each of its `n − 1` rows. On a long
//! sequence the sweep's work counts are gated: rows stop at their first
//! infeasible column, and the stop-state cursor's probes stay a small
//! multiple of the candidates scored.

use batsched_bench::workloads::{synthetic_n50_m8, synthetic_scaling};
use batsched_core::prelude::*;
use batsched_taskgraph::analysis::{max_makespan, min_makespan};
use batsched_taskgraph::paper::{g2, G2_TABLE4_DEADLINES};
use batsched_taskgraph::TaskGraph;

fn assert_counters_exact(name: &str, g: &TaskGraph, deadline: f64) {
    let mut ws = SolverWorkspace::new();
    let solution = schedule_in(
        g,
        Minutes::new(deadline),
        &SchedulerConfig::default(),
        &mut ws,
    )
    .expect("feasible instance");
    let prof = ws.prof();
    let windows: usize = solution.trace.iter().map(|it| it.windows.len()).sum();
    let rows_per_window = g.task_count() as u64 - 1;
    assert_eq!(prof.windows, windows as u64, "{name} d={deadline}: windows");
    assert_eq!(
        prof.rows_full,
        prof.windows * rows_per_window,
        "{name} d={deadline}: rows_full"
    );
    assert_eq!(prof.rows_carried, 0, "{name} d={deadline}: rows_carried");
}

#[test]
fn g2_counters_are_exact_at_every_table4_deadline() {
    let g = g2();
    for d in G2_TABLE4_DEADLINES {
        assert_counters_exact("G2", &g, d);
    }
}

#[test]
fn synthetic_n50_m8_counters_are_exact() {
    let g = synthetic_n50_m8();
    let lo = min_makespan(&g).value();
    let hi = max_makespan(&g).value();
    assert_counters_exact("synthetic_n50_m8", &g, lo + (hi - lo) * 0.7);
}

/// Work-count gate on one n = 200, m = 8 layered solve (the
/// `sweep_scaling` instance at the 70% deadline): the galloping stop-state
/// cursor compares at most 3 run boundaries per candidate (a search that
/// restarted from boundary 0 would take ~2·log₂ of the journal depth), and
/// rows stop at their first infeasible column, so fewer candidates are
/// scored than the windows' widths add up to over all rows.
#[test]
fn sweep_work_counts_stay_within_their_gates() {
    let g = synthetic_scaling(200);
    let (n, m) = (g.task_count() as u64, g.point_count() as u64);
    let lo = min_makespan(&g).value();
    let hi = max_makespan(&g).value();
    let mut ws = SolverWorkspace::new();
    let solution = schedule_in(
        &g,
        Minutes::new(lo + (hi - lo) * 0.7),
        &SchedulerConfig::default(),
        &mut ws,
    )
    .expect("feasible instance");
    let prof = ws.prof();
    let widths: u64 = solution
        .trace
        .iter()
        .flat_map(|it| &it.windows)
        .map(|w| (n - 1) * (m - w.window_start.index() as u64))
        .sum();
    assert!(
        prof.stop_probes <= 3 * prof.candidates,
        "{} stop-state probes for {} candidates",
        prof.stop_probes,
        prof.candidates
    );
    assert!(
        prof.candidates < widths,
        "{} candidates scored against {widths} window columns over all rows",
        prof.candidates
    );
}
